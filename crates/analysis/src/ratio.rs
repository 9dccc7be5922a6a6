//! The Figure 3 clock-ratio curve (paper eq. 10).

use crate::limits::AnalysisError;

/// Maximum admissible clock-rate *ratio* between the fastest and slowest
/// clock in the system (paper eq. 10):
///
/// `ρ_max / ρ_min = f_max / (f_max − f_min + 1 + le)`.
///
/// Valid combinations lie *below* the curve.
///
/// # Errors
///
/// [`AnalysisError::InvalidParameter`] if `f_min > f_max` or `f_max == 0`.
pub fn clock_ratio_limit(
    max_frame_bits: u32,
    min_frame_bits: u32,
    line_encoding_bits: u32,
) -> Result<f64, AnalysisError> {
    if max_frame_bits == 0 {
        return Err(AnalysisError::InvalidParameter {
            name: "max_frame_bits",
            value: 0.0,
        });
    }
    if min_frame_bits > max_frame_bits {
        return Err(AnalysisError::InvalidParameter {
            name: "min_frame_bits",
            value: f64::from(min_frame_bits),
        });
    }
    let denominator =
        f64::from(max_frame_bits) - f64::from(min_frame_bits) + 1.0 + f64::from(line_encoding_bits);
    Ok(f64::from(max_frame_bits) / denominator)
}

/// One point of the Figure 3 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure3Point {
    /// Longest frame on the network (bits).
    pub max_frame_bits: u32,
    /// Shortest frame on the network (bits).
    pub min_frame_bits: u32,
    /// The admissible ρ_max/ρ_min ratio at this point.
    pub ratio_limit: f64,
}

/// Generates the Figure 3 data: for each `f_max` in `max_frames`, sweep
/// `f_min` from `min_frame_floor` up to `f_max` in `steps` equal steps and
/// evaluate the ratio limit. The paper plots the curve for `le = 4`.
///
/// # Panics
///
/// Panics if `steps == 0`.
#[must_use]
pub fn figure3_series(
    max_frames: &[u32],
    min_frame_floor: u32,
    steps: u32,
    line_encoding_bits: u32,
) -> Vec<Figure3Point> {
    assert!(steps > 0, "need at least one sweep step");
    let mut points = Vec::new();
    for &f_max in max_frames {
        if f_max < min_frame_floor {
            continue;
        }
        for i in 0..=steps {
            let f_min = min_frame_floor
                + ((u64::from(f_max - min_frame_floor) * u64::from(i)) / u64::from(steps)) as u32;
            if let Ok(ratio_limit) = clock_ratio_limit(f_max, f_min, line_encoding_bits) {
                points.push(Figure3Point {
                    max_frame_bits: f_max,
                    min_frame_bits: f_min,
                    ratio_limit,
                });
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spot_check_equal_128_bit_frames() {
        // "if the maximum and minimum frame size are both 128 bits the
        // ratio ... is f_max / 5 = 25" (it is 25.6; the paper rounds).
        let ratio = clock_ratio_limit(128, 128, 4).unwrap();
        assert!((ratio - 128.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn wide_frame_ranges_forbid_wide_clock_ranges() {
        // Monotonicity along the curve: growing the spread between f_min
        // and f_max lowers the admissible clock ratio.
        let narrow = clock_ratio_limit(1000, 990, 4).unwrap();
        let wide = clock_ratio_limit(1000, 100, 4).unwrap();
        assert!(narrow > wide);
    }

    #[test]
    fn equal_frames_ratio_approaches_f_over_le_plus_one() {
        // At f_min = f_max the denominator is 1 + le — the "significant
        // limit at high clock ratios" the paper highlights.
        for f in [64u32, 256, 1024] {
            let ratio = clock_ratio_limit(f, f, 4).unwrap();
            assert!((ratio - f64::from(f) / 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn series_lies_on_the_curve() {
        let points = figure3_series(&[128, 2076], 28, 16, 4);
        assert!(!points.is_empty());
        for p in &points {
            let expected = clock_ratio_limit(p.max_frame_bits, p.min_frame_bits, 4).unwrap();
            assert!((p.ratio_limit - expected).abs() < 1e-12);
            assert!(p.min_frame_bits >= 28 && p.min_frame_bits <= p.max_frame_bits);
        }
    }

    #[test]
    fn series_skips_infeasible_max_frames() {
        let points = figure3_series(&[10], 28, 4, 4);
        assert!(points.is_empty());
    }

    #[test]
    fn degenerate_parameters_error() {
        assert!(clock_ratio_limit(0, 0, 4).is_err());
        assert!(clock_ratio_limit(100, 200, 4).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one sweep step")]
    fn zero_steps_is_rejected() {
        let _ = figure3_series(&[128], 28, 0, 4);
    }
}
