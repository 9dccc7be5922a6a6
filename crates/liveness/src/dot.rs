//! Graphviz export of a [`FairGraph`].
//!
//! For small models (or small fragments of big ones) it is often more
//! illuminating to *look at* the state graph than to read traces. The
//! renderer draws every kept state with a user-supplied label and an
//! optional highlight (e.g. the paper's violating states), and every
//! stored model transition. Stutter loops are a liveness device, not
//! model transitions, so they are not drawn.

use crate::graph::FairGraph;
use std::io;
use tta_modelcheck::StateCodec;

impl<C: StateCodec> FairGraph<'_, C> {
    /// Renders the graph as Graphviz DOT. `label` produces node labels;
    /// `highlight` marks nodes to draw filled red (violations, targets).
    pub fn to_dot<L, H>(&self, name: &str, label: L, highlight: H) -> String
    where
        L: Fn(&C::State) -> String,
        H: Fn(&C::State) -> bool,
    {
        let mut out = Vec::new();
        self.write_dot(&mut out, name, label, highlight)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("DOT output is UTF-8")
    }

    /// Streams the graph as Graphviz DOT into `writer` without
    /// materializing the document — a multi-million-state graph renders
    /// in constant memory straight to a file. [`Self::to_dot`] is this,
    /// buffered into a `String`.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O errors.
    pub fn write_dot<W, L, H>(
        &self,
        writer: &mut W,
        name: &str,
        label: L,
        highlight: H,
    ) -> io::Result<()>
    where
        W: io::Write,
        L: Fn(&C::State) -> String,
        H: Fn(&C::State) -> bool,
    {
        writeln!(writer, "digraph {} {{", sanitize(name))?;
        writeln!(writer, "  rankdir=LR;")?;
        writeln!(writer, "  node [shape=box, fontsize=10];")?;
        let states = self.state_count() as u32;
        for i in 0..states {
            let state = self.state(i);
            let attrs = if highlight(&state) {
                ", style=filled, fillcolor=\"#ffcccc\", color=red"
            } else {
                ""
            };
            writeln!(
                writer,
                "  s{i} [label=\"{}\"{attrs}];",
                escape(&label(&state))
            )?;
        }
        for from in (0..states).filter(|&v| !self.is_deadlock(v)) {
            for (to, _) in self.neighbors(from) {
                writeln!(writer, "  s{from} -> s{to};")?;
            }
        }
        if self.is_truncated() {
            writeln!(
                writer,
                "  trunc [label=\"… (truncated)\", shape=plaintext];"
            )?;
        }
        writeln!(writer, "}}")
    }
}

fn sanitize(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if cleaned.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        format!("g{cleaned}")
    } else if cleaned.is_empty() {
        "graph_".to_string()
    } else {
        cleaned
    }
}

fn escape(label: &str) -> String {
    label
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_modelcheck::{IdentityCodec, TransitionSystem};

    struct Ring(u32);

    impl TransitionSystem for Ring {
        type State = u32;

        fn initial_states(&self) -> Vec<u32> {
            vec![0]
        }

        fn successors(&self, s: &u32, out: &mut Vec<u32>) {
            out.push((s + 1) % self.0);
            if s.is_multiple_of(2) {
                out.push((s + 2) % self.0);
            }
        }
    }

    fn ring(n: u32, max_states: u64) -> FairGraph<'static, IdentityCodec<u32>> {
        static CODEC: IdentityCodec<u32> = IdentityCodec::new();
        FairGraph::build(&Ring(n), &CODEC, &[], max_states)
    }

    #[test]
    fn dot_output_is_well_formed() {
        let dot = ring(4, 100).to_dot("ring 4", |s| format!("state {s}"), |s| *s == 3);
        assert!(dot.starts_with("digraph ring_4 {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("s0 [label=\"state 0\"]"));
        assert!(dot.contains("fillcolor=\"#ffcccc\""), "highlight rendered");
        assert!(dot.contains("s0 -> s1;"));
        assert!(!dot.contains("truncated"));
        // Every even state has two successors, every odd one has one.
        assert_eq!(dot.matches(" -> ").count(), 2 * 2 + 2);
    }

    #[test]
    fn dot_escapes_labels_and_names() {
        let dot = ring(2, 100).to_dot("2bad\"name", |s| format!("a\"b\n{s}"), |_| false);
        assert!(dot.contains("digraph g2bad_name"));
        assert!(dot.contains("a\\\"b\\n0"));
    }

    #[test]
    fn truncation_is_visible_in_dot() {
        let graph = ring(50, 3);
        let dot = graph.to_dot("big", std::string::ToString::to_string, |_| false);
        assert!(dot.contains("truncated"));
        // Only edges within the kept states are drawn.
        assert_eq!(dot.matches("[label=").count(), 3 + 1);
        assert!(dot
            .lines()
            .filter(|l| l.contains(" -> "))
            .all(|l| !l.contains("s3")));
    }

    /// A deadlock's stutter loop is not a model transition: not drawn.
    #[test]
    fn stutter_loops_are_not_drawn() {
        struct Line;
        impl TransitionSystem for Line {
            type State = u32;
            fn initial_states(&self) -> Vec<u32> {
                vec![0]
            }
            fn successors(&self, s: &u32, out: &mut Vec<u32>) {
                if *s < 2 {
                    out.push(s + 1);
                }
            }
        }
        static CODEC: IdentityCodec<u32> = IdentityCodec::new();
        let graph = FairGraph::build(&Line, &CODEC, &[], 100);
        assert!(graph.is_deadlock(2));
        let dot = graph.to_dot("line", ToString::to_string, |_| false);
        assert!(dot.contains("s0 -> s1;\n  s1 -> s2;\n}"));
        assert!(!dot.contains("s2 -> s2"));
    }

    #[test]
    fn streaming_dot_matches_buffered_dot() {
        let graph = ring(6, 100);
        let mut streamed = Vec::new();
        graph
            .write_dot(
                &mut streamed,
                "ring 6",
                |s| format!("state {s}"),
                |s| *s == 3,
            )
            .unwrap();
        let buffered = graph.to_dot("ring 6", |s| format!("state {s}"), |s| *s == 3);
        assert_eq!(String::from_utf8(streamed).unwrap(), buffered);
    }
}
