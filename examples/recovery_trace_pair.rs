//! The recovery story in one trace pair: the *same* transient replay
//! fault run twice, once with the seed's absorbing freeze
//! (`RestartPolicy::Never`) and once with a watchdog host.
//!
//! Under `never` the disturbance outlives the fault — the frozen node is
//! lost for the remaining life of the system even though the coupler
//! recovered at slot 60. The watchdog notices the silence, power-cycles
//! the controller, and the node re-runs startup and reintegrates: a
//! bounded time-to-repair instead of a permanent loss.
//!
//! ```sh
//! cargo run --release --example recovery_trace_pair
//! ```

use tta::guardian::{CouplerAuthority, CouplerFaultMode};
use tta::protocol::RestartPolicy;
use tta::sim::{
    FaultEvent, FaultPersistence, FaultPlan, FaultTarget, RecoveryOutcome, SimBuilder, SimReport,
    Topology,
};

fn run(policy: RestartPolicy) -> SimReport {
    let plan = FaultPlan::none().with(FaultEvent {
        target: FaultTarget::Coupler {
            channel: 0,
            mode: CouplerFaultMode::OutOfSlot,
        },
        from_slot: 16,
        to_slot: 64, // transient: the coupler is healthy again afterwards
        persistence: FaultPersistence::Transient,
    });
    SimBuilder::new(4)
        .topology(Topology::Star)
        .authority(CouplerAuthority::FullShifting)
        .slots(400)
        .plan(plan)
        .restart_policy(policy)
        .build()
        .run()
}

fn narrate(title: &str, report: &SimReport) {
    println!("## {title}\n");
    for (slot, event) in report.log().entries() {
        println!("[{slot:>4}] {event}");
    }
    println!();
    println!("{report}");
    println!(
        "outcome: {}, unavailability {:.3}\n",
        RecoveryOutcome::classify(report),
        report.unavailability(4)
    );
}

fn main() {
    let lost = run(RestartPolicy::Never);
    narrate(
        "1. restart policy `never`: the transient becomes permanent",
        &lost,
    );
    assert_eq!(
        RecoveryOutcome::classify(&lost),
        RecoveryOutcome::PermanentLoss
    );

    let recovered = run(RestartPolicy::Watchdog { silence_slots: 8 });
    narrate(
        "2. restart policy `watchdog(8)`: bounded time-to-repair",
        &recovered,
    );
    assert_eq!(
        RecoveryOutcome::classify(&recovered),
        RecoveryOutcome::Recovered
    );

    println!(
        "same fault, same seed, same horizon: availability {:.3} -> {:.3}, \
         time to reintegration {} slots",
        1.0 - lost.unavailability(4),
        1.0 - recovered.unavailability(4),
        recovered
            .time_to_reintegration()
            .expect("the watchdog run recovered"),
    );
}
