//! Table-driven coverage of the authority ladder: for every
//! [`CouplerAuthority`] level, which fault modes the coupler may exhibit
//! and whether full-frame buffering is permitted. The tables make the
//! paper's central tradeoff mechanical: the capability to buffer whole
//! frames widens the guardian's own failure modes. What each authority
//! does with a faulty node's traffic is pinned against the simulator's
//! guardian in the facade's `tests/end_to_end.rs`.

use tta_guardian::enhanced::{audit, BufferedFunction, MailboxService, PriorityRelay};
use tta_guardian::{BufferedFrame, CouplerAuthority, CouplerFaultMode, StarCoupler};
use tta_types::constants::I_FRAME_PROTOCOL_BITS;
use tta_types::NodeId;

use CouplerAuthority::FullShifting;

/// The coupler's enumerable fault modes grow with authority exactly once:
/// `out_of_slot` appears at full shifting and nowhere below.
#[test]
fn fault_modes_grow_only_at_full_shifting() {
    for authority in CouplerAuthority::all() {
        let modes = StarCoupler::new(authority).fault_modes();
        assert_eq!(
            modes.contains(&CouplerFaultMode::OutOfSlot),
            authority == FullShifting,
            "{authority}: replay capability"
        );
        assert_eq!(
            modes.len(),
            if authority == FullShifting { 4 } else { 3 },
            "{authority}: no other mode may appear"
        );
        assert_eq!(
            authority.preserves_passive_fault_hypothesis(),
            authority != FullShifting,
            "{authority}: passive-channel hypothesis"
        );
    }
}

/// The out-of-slot buffering boundary: reconstructing a coupler with a
/// non-empty buffer must panic for every authority that cannot buffer
/// full frames, and succeed only for full shifting.
#[test]
fn with_buffer_rejects_non_buffering_authorities() {
    let held = BufferedFrame {
        id: 2,
        kind: tta_types::FrameKind::CState,
    };
    for authority in CouplerAuthority::all() {
        let attempt = std::panic::catch_unwind(|| StarCoupler::with_buffer(authority, held));
        assert_eq!(
            attempt.is_ok(),
            authority.can_buffer_full_frames(),
            "{authority}: non-empty buffer acceptance"
        );
        // The empty buffer is representable everywhere.
        let empty = StarCoupler::with_buffer(authority, BufferedFrame::empty());
        assert_eq!(empty.buffer(), BufferedFrame::empty());
    }
}

/// Eq. (3) boundary, exactly: a function needing `f_min − 1` bits is
/// fault tolerant, one more bit violates the bound.
#[test]
fn fault_tolerance_bound_boundary_is_exact() {
    struct Needs(u32);
    impl BufferedFunction for Needs {
        fn required_buffer_bits(&self) -> u32 {
            self.0
        }
    }
    let f_min = tta_types::constants::N_FRAME_MIN_BITS;
    assert!(!Needs(f_min - 1).violates_fault_tolerance_bound(f_min));
    assert!(Needs(f_min).violates_fault_tolerance_bound(f_min));
    assert!(Needs(f_min - 1).violates_fault_tolerance_bound(f_min - 1));
    // Degenerate input: a zero-bit minimum frame must not underflow.
    assert!(Needs(1).violates_fault_tolerance_bound(0));
    assert!(!Needs(0).violates_fault_tolerance_bound(0));
}

/// Both enhanced functions from Section 6 audit as bound violations the
/// moment they hold a single real frame, and both enable the replay
/// fault mode — the capability the golden traces show freezing healthy
/// nodes.
#[test]
fn enhanced_functions_audit_as_replay_enablers() {
    let f_min = tta_types::constants::N_FRAME_MIN_BITS;

    let mut mailbox = MailboxService::new();
    mailbox.store(NodeId::new(0), I_FRAME_PROTOCOL_BITS);
    let mut relay = PriorityRelay::new();
    relay.enqueue(1, I_FRAME_PROTOCOL_BITS);

    for (name, function) in [
        ("mailboxes", &mailbox as &dyn BufferedFunction),
        ("CAN emulation", &relay as &dyn BufferedFunction),
    ] {
        assert!(
            function.violates_fault_tolerance_bound(f_min),
            "{name}: any stored frame exceeds B_max"
        );
        assert_eq!(
            function.enabled_fault_mode(),
            CouplerFaultMode::OutOfSlot,
            "{name}: full-frame buffers enable replay"
        );
    }

    let report = audit("mailboxes", &mailbox, f_min);
    assert!(!report.fault_tolerant);
    assert_eq!(report.permitted_bits, f_min - 1);
    assert!(report.to_string().contains("VIOLATES"));
}
