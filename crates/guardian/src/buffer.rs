//! The guardian's leaky-bucket bit buffer — an *executable* counterpart of
//! the paper's Section 6 buffer analysis.
//!
//! When the clock of the central guardian differs from the clock of the
//! sending node, the guardian must buffer part of every frame it
//! forwards: if its clock is slower, incoming bits pile up; if it is
//! faster, it must pre-buffer enough bits not to run dry mid-frame. The
//! paper's closed form (eq. 1) is `B_min = le + ρ · f_max`. This module
//! simulates the forwarding bit-by-bit and reports the actual peak buffer
//! occupancy, which the test suite and benches compare against the closed
//! form in `tta-analysis`.

use std::fmt;

/// Result of forwarding one frame through a rate-mismatched guardian.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForwardingReport {
    /// Peak number of bits simultaneously held in the buffer.
    pub peak_occupancy_bits: u32,
    /// Bits the guardian had to accumulate before starting to forward.
    pub prebuffer_bits: u32,
    /// Total forwarding latency added by the guardian, in incoming bit
    /// times.
    pub added_latency_bits: f64,
}

impl fmt::Display for ForwardingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "peak {} bits (prebuffer {}, +{:.2} bit-times latency)",
            self.peak_occupancy_bits, self.prebuffer_bits, self.added_latency_bits
        )
    }
}

/// Simulates forwarding a frame of `frame_bits` bits arriving at
/// `node_rate` (bits per unit time) and leaving at `guardian_rate`,
/// after mandatorily accumulating `line_encoding_bits` bits for start-of-
/// frame detection.
///
/// The guardian starts transmitting as early as possible without ever
/// running dry: the prebuffer is the minimal number of initially held
/// bits such that every output bit has already arrived when its
/// transmission starts.
///
/// # Panics
///
/// Panics if any rate is non-positive, non-finite, or `frame_bits == 0`.
#[must_use]
pub fn simulate_forwarding(
    frame_bits: u32,
    node_rate: f64,
    guardian_rate: f64,
    line_encoding_bits: u32,
) -> ForwardingReport {
    assert!(frame_bits > 0, "cannot forward an empty frame");
    assert!(
        node_rate.is_finite() && node_rate > 0.0,
        "node rate must be positive, got {node_rate}"
    );
    assert!(
        guardian_rate.is_finite() && guardian_rate > 0.0,
        "guardian rate must be positive, got {guardian_rate}"
    );

    let f = f64::from(frame_bits);
    let le = f64::from(line_encoding_bits);

    // Arrival time of incoming bit k (0-based, completed at t_a):
    //   t_a(k) = (k + 1) / node_rate
    // Output of bit k starts at t_start + k / guardian_rate and needs the
    // bit to be fully arrived: t_start + k/r_g >= (k+1)/r_n for all k.
    // The binding constraint maximizes (k+1)/r_n - k/r_g over k in
    // [0, f-1]; it is linear in k so the extremum is at an endpoint.
    let constraint = |k: f64| (k + 1.0) / node_rate - k / guardian_rate;
    let t_start_min = constraint(0.0).max(constraint(f - 1.0)).max(0.0);
    // The le line-encoding bits are consumed by start-of-frame detection,
    // not forwarded, so their arrival time adds on top of the
    // rate-compensation delay (the paper's B_min = le + ρ·f is additive).
    let t_start = t_start_min + le / node_rate;

    // Prebuffer: bits arrived by t_start (capped by the frame length).
    let prebuffer = (t_start * node_rate).min(f).ceil();

    // Peak occupancy: occupancy(t) = arrived(t) - sent(t). Both are
    // piecewise linear; the peak is at one of: transmission start, end of
    // arrivals, or end of transmission.
    let arrivals_end = f / node_rate;
    let sending_end = t_start + f / guardian_rate;
    let occupancy = |t: f64| -> f64 {
        let arrived = (t * node_rate).floor().clamp(0.0, f);
        let sent = if t <= t_start {
            0.0
        } else {
            ((t - t_start) * guardian_rate).floor().clamp(0.0, f)
        };
        arrived - sent
    };
    let peak = occupancy(t_start)
        .max(occupancy(arrivals_end))
        .max(occupancy(sending_end.min(arrivals_end)));

    ForwardingReport {
        peak_occupancy_bits: peak.max(0.0) as u32,
        prebuffer_bits: prebuffer.max(0.0) as u32,
        added_latency_bits: t_start * node_rate,
    }
}

/// Closed-form minimum buffer from the paper's eq. (1):
/// `B_min = le + ρ · f_max`, rounded up to whole bits.
#[must_use]
pub fn closed_form_min_buffer(frame_bits: u32, rho: f64, line_encoding_bits: u32) -> u32 {
    assert!(
        rho.is_finite() && (0.0..1.0).contains(&rho),
        "ρ must be in [0, 1), got {rho}"
    );
    line_encoding_bits + (rho * f64::from(frame_bits)).ceil() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_clocks_need_only_line_encoding() {
        let r = simulate_forwarding(1000, 1.0, 1.0, 4);
        assert!(
            (4..=5).contains(&r.prebuffer_bits),
            "prebuffer {}",
            r.prebuffer_bits
        );
        assert!(r.peak_occupancy_bits <= 6);
    }

    #[test]
    fn slow_guardian_accumulates_proportionally() {
        // Guardian 1% slower: ~1% of the frame piles up on top of le.
        let frame = 10_000;
        let r = simulate_forwarding(frame, 1.0, 0.99, 4);
        let expected = closed_form_min_buffer(frame, 0.01, 4);
        let diff = (i64::from(r.peak_occupancy_bits) - i64::from(expected)).abs();
        assert!(
            diff <= 2,
            "simulated {} vs closed form {expected}",
            r.peak_occupancy_bits
        );
    }

    #[test]
    fn fast_guardian_prebuffers_proportionally() {
        // Guardian 1% faster: must pre-hold ~1% of the frame or run dry.
        let frame = 10_000;
        let r = simulate_forwarding(frame, 0.99, 1.0, 4);
        // ρ = (1.0 - 0.99) / 1.0 = 0.01
        let expected = closed_form_min_buffer(frame, 0.01, 4);
        let diff = (i64::from(r.prebuffer_bits) - i64::from(expected)).abs();
        assert!(
            diff <= 2,
            "prebuffer {} vs closed form {expected}",
            r.prebuffer_bits
        );
    }

    #[test]
    fn paper_crystal_example_matches_eq_six_scale() {
        // ±100 ppm crystals: ρ = 0.0002. For the largest frame that fits a
        // 27-bit buffer budget (115,000 bits, eq. 6), the peak occupancy
        // must come out at B_max = f_min - 1 = 27 bits.
        let r = simulate_forwarding(115_000, 1.0, 1.0 - 2e-4, 4);
        assert!(
            (26..=28).contains(&r.peak_occupancy_bits),
            "expected ~27 bits, got {}",
            r.peak_occupancy_bits
        );
    }

    #[test]
    fn occupancy_grows_with_frame_length() {
        let short = simulate_forwarding(100, 1.0, 0.97, 4).peak_occupancy_bits;
        let long = simulate_forwarding(10_000, 1.0, 0.97, 4).peak_occupancy_bits;
        assert!(long > short);
    }

    #[test]
    fn occupancy_grows_with_rate_mismatch() {
        let mild = simulate_forwarding(10_000, 1.0, 0.999, 4).peak_occupancy_bits;
        let severe = simulate_forwarding(10_000, 1.0, 0.9, 4).peak_occupancy_bits;
        assert!(severe > mild);
    }

    #[test]
    fn latency_includes_line_encoding() {
        let r = simulate_forwarding(100, 1.0, 1.0, 8);
        assert!(r.added_latency_bits >= 8.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_is_rejected() {
        let _ = simulate_forwarding(10, 0.0, 1.0, 4);
    }

    #[test]
    #[should_panic(expected = "empty frame")]
    fn empty_frame_is_rejected() {
        let _ = simulate_forwarding(0, 1.0, 1.0, 4);
    }

    #[test]
    fn closed_form_rounds_up() {
        assert_eq!(closed_form_min_buffer(1000, 0.0015, 4), 4 + 2);
        assert_eq!(closed_form_min_buffer(1000, 0.0, 4), 4);
    }

    #[test]
    fn report_display_is_informative() {
        let r = simulate_forwarding(100, 1.0, 1.0, 4);
        assert!(r.to_string().contains("peak"));
    }
}
