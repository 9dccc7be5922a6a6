//! Property-based tests of the guardian crate: coupler relay laws, SOS
//! acceptance monotonicity, and the leaky-bucket vs. closed-form
//! agreement across the parameter space.

use proptest::prelude::*;
use tta_guardian::buffer::{closed_form_min_buffer, simulate_forwarding};
use tta_guardian::sos::{ReceiverTolerance, SosDefect, SosDomain};
use tta_guardian::{CouplerAuthority, CouplerFaultMode, StarCoupler};
use tta_protocol::ChannelObservation;
use tta_types::FrameKind;

fn arb_authority() -> impl Strategy<Value = CouplerAuthority> {
    prop::sample::select(CouplerAuthority::all().to_vec())
}

fn arb_frame() -> impl Strategy<Value = ChannelObservation> {
    prop_oneof![
        Just(ChannelObservation::silence()),
        (1u16..=8).prop_map(|id| ChannelObservation::frame(FrameKind::ColdStart, id)),
        (1u16..=8).prop_map(|id| ChannelObservation::frame(FrameKind::CState, id)),
        (1u16..=8).prop_map(|id| ChannelObservation::frame(FrameKind::Other, id)),
    ]
}

proptest! {
    /// A fault-free coupler is an identity function on the channel,
    /// whatever its authority and whatever has been buffered before.
    #[test]
    fn fault_free_relay_is_identity(
        authority in arb_authority(),
        history in prop::collection::vec(arb_frame(), 0..8),
        input in arb_frame(),
    ) {
        let mut coupler = StarCoupler::new(authority);
        for frame in history {
            let _ = coupler.relay(frame, CouplerFaultMode::None);
        }
        prop_assert_eq!(coupler.relay(input, CouplerFaultMode::None), input);
    }

    /// A replay reproduces exactly the last id-bearing frame that was on
    /// the channel, regardless of interleaved silence.
    #[test]
    fn replay_reproduces_last_valid_frame(
        frames in prop::collection::vec(arb_frame(), 1..10),
        trailing_silence in 0usize..4,
    ) {
        let mut coupler = StarCoupler::new(CouplerAuthority::FullShifting);
        let mut last_valid = None;
        for frame in &frames {
            let out = coupler.relay(*frame, CouplerFaultMode::None);
            if out.id != 0 {
                last_valid = Some(out);
            }
        }
        for _ in 0..trailing_silence {
            let _ = coupler.relay(ChannelObservation::silence(), CouplerFaultMode::None);
        }
        let replay = coupler.relay(ChannelObservation::silence(), CouplerFaultMode::OutOfSlot);
        match last_valid {
            Some(expected) => prop_assert_eq!(replay, expected),
            None => prop_assert_eq!(replay, ChannelObservation::silence()),
        }
    }

    /// Below full shifting the buffer stays empty forever: the structural
    /// reason restricted couplers cannot replay.
    #[test]
    fn restricted_couplers_never_buffer(
        authority in prop::sample::select(vec![
            CouplerAuthority::Passive,
            CouplerAuthority::TimeWindows,
            CouplerAuthority::SmallShifting,
        ]),
        frames in prop::collection::vec(arb_frame(), 0..12),
    ) {
        let mut coupler = StarCoupler::new(authority);
        for frame in frames {
            let _ = coupler.relay(frame, CouplerFaultMode::None);
            prop_assert_eq!(coupler.buffer(), tta_guardian::BufferedFrame::empty());
        }
    }

    /// SOS acceptance is monotone: a receiver that accepts a defect also
    /// accepts every smaller defect in the same domain.
    #[test]
    fn sos_acceptance_is_monotone(
        tol_time in 0.0f64..=1.0,
        tol_value in 0.0f64..=1.0,
        m1 in 0.0f64..=1.0,
        m2 in 0.0f64..=1.0,
        time_domain in any::<bool>(),
    ) {
        let tolerance = ReceiverTolerance::new(tol_time, tol_value);
        let domain = if time_domain { SosDomain::Time } else { SosDomain::Value };
        let (small, large) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
        let small = SosDefect::new(domain, small);
        let large = SosDefect::new(domain, large);
        if tolerance.accepts(Some(&large)) {
            prop_assert!(tolerance.accepts(Some(&small)));
        }
    }

    /// The bit-exact forwarding simulation tracks the paper's closed form
    /// within rounding across the whole (frame, ρ) space.
    #[test]
    fn leaky_bucket_matches_closed_form(
        frame_bits in 64u32..60_000,
        rho_scaled in 1u32..2_000, // ρ in [0.0001, 0.2]
        le in 0u32..16,
    ) {
        let rho = f64::from(rho_scaled) * 1e-4;
        let closed = closed_form_min_buffer(frame_bits, rho, le);
        let simulated = simulate_forwarding(frame_bits, 1.0, 1.0 - rho, le);
        let diff = (i64::from(closed) - i64::from(simulated.peak_occupancy_bits)).abs();
        // Eq. (1) is a first-order approximation; at large ρ (far beyond
        // the paper's crystal regime) it drifts by a few bits.
        let tolerance = 2 + (rho * 16.0).ceil() as i64;
        prop_assert!(
            diff <= tolerance,
            "f={frame_bits} ρ={rho}: closed {closed} vs simulated {}",
            simulated.peak_occupancy_bits
        );
    }

    /// Faster guardians need prebuffering, slower ones accumulate — both
    /// directions cost the same order of buffer (the paper treats ρ
    /// symmetrically).
    #[test]
    fn buffer_cost_is_direction_symmetric(
        frame_bits in 1_000u32..50_000,
        rho_scaled in 1u32..500,
    ) {
        let rho = f64::from(rho_scaled) * 1e-4;
        let slow_guardian = simulate_forwarding(frame_bits, 1.0, 1.0 - rho, 4);
        let fast_guardian = simulate_forwarding(frame_bits, 1.0 - rho, 1.0, 4);
        let a = i64::from(slow_guardian.peak_occupancy_bits);
        let b = i64::from(fast_guardian.prebuffer_bits);
        prop_assert!((a - b).abs() <= 3, "slow {a} vs fast {b}");
    }
}
