//! Supplementary experiment S2 — the paper's discussion items,
//! executable:
//!
//! 1. **Enhanced guardian functions** (§6): mailboxes and CAN-emulation
//!    relays require full-frame buffering and therefore violate the
//!    fault-tolerance bound B_max = f_min − 1.
//! 2. **Asynchronous masquerading** (§7): a store-and-forward relay that
//!    replays an identification message splits an asynchronous system's
//!    rosters — no clocks or slots involved.
//! 3. **Clock drift & resynchronization**: the ρ of Section 6 as a
//!    physical phenomenon, bounded per-round by FTA clock sync.

use tta_analysis::tables::Table;
use tta_bench::heading;
use tta_guardian::enhanced::{audit, MailboxService, PriorityRelay};
use tta_sim::asynch::AsyncMasqueradeDemo;
use tta_sim::drift::DriftExperiment;
use tta_types::constants::{x_frame_bits, N_FRAME_MIN_BITS};
use tta_types::NodeId;

fn main() {
    heading("S2a — enhanced guardian functions vs. the eq. (3) buffer bound");
    // X-frames sized by the spec's composition: 16 data bytes per
    // mailbox, 8 per queued relay frame.
    let mut mailbox = MailboxService::new();
    for i in 0..4u8 {
        mailbox.store(NodeId::new(i), x_frame_bits(16 * 8));
    }
    let mut relay = PriorityRelay::new();
    for id in [0x100, 0x200, 0x080] {
        relay.enqueue(id, x_frame_bits(8 * 8));
    }

    let mut table = Table::new([
        "guardian function",
        "buffer needed",
        "permitted (eq. 3)",
        "verdict",
    ]);
    for report in [
        audit("stale-value mailboxes (§6)", &mailbox, N_FRAME_MIN_BITS),
        audit(
            "CAN-emulation priority relay (§6)",
            &relay,
            N_FRAME_MIN_BITS,
        ),
    ] {
        table.row([
            report.function.clone(),
            format!("{} bits", report.required_bits),
            format!("{} bits", report.permitted_bits),
            if report.fault_tolerant {
                "ok".to_string()
            } else {
                "VIOLATES eq. (3)".to_string()
            },
        ]);
    }
    println!("{table}");
    println!("\"Both of these enhanced functions would require buffering full frames\" —");
    println!("and full-frame buffers enable the out_of_slot replay fault of Section 5.\n");

    heading("S2b — masquerading in an asynchronous system (§7)");
    let clean = AsyncMasqueradeDemo::new(false).run();
    let faulty = AsyncMasqueradeDemo::new(true).run();
    println!("healthy store-and-forward relay:");
    print!("{clean}");
    println!(
        "  rosters consistent: {} | deceived clients: {:?}\n",
        clean.rosters_consistent(),
        clean.deceived_clients()
    );
    println!("faulty relay replaying a stored identification message:");
    print!("{faulty}");
    println!(
        "  rosters consistent: {} | deceived clients: {:?}",
        faulty.rosters_consistent(),
        faulty.deceived_clients()
    );
    println!("\"the underlying issue is not timing, but rather identification.\"\n");

    heading("S2c — clock drift, FTA resynchronization, and ρ");
    let mut table = Table::new([
        "configuration",
        "max healthy offset (µt)",
        "per-round ρ·round (µt)",
    ]);
    let base = DriftExperiment::paper_crystals();
    for (label, config) in [
        ("±100 ppm, FTA sync each round", base),
        (
            "±100 ppm, no synchronization",
            DriftExperiment {
                resynchronize: false,
                ..base
            },
        ),
        (
            "±100 ppm, FTA + one Byzantine clock",
            DriftExperiment {
                byzantine: Some(1),
                ..base
            },
        ),
    ] {
        let report = config.run();
        table.row([
            label.to_string(),
            format!("{:.2}", report.max_offset_microticks),
            format!("{:.2}", report.per_round_drift_bound),
        ]);
    }
    println!("{table}");
    println!("synchronization bounds offsets near the per-round drift ρ·round — the residual");
    println!("rate difference within a round is exactly the ρ that sizes the guardian buffer");
    println!("in eq. (1).");
}
