//! Frame-size and clock-rate limits (paper equations 4 and 7–9).

use std::error::Error;
use std::fmt;

/// Errors from the limit computations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnalysisError {
    /// The configuration admits no buffer at all: `f_min − 1 − le ≤ 0`,
    /// i.e. the shortest frame is too short to leave room for the
    /// mandatory line-encoding bits.
    NoBufferRoom {
        /// Shortest frame in bits.
        min_frame_bits: u32,
        /// Line-encoding overhead in bits.
        line_encoding_bits: u32,
    },
    /// ρ (or another parameter) is outside its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::NoBufferRoom {
                min_frame_bits,
                line_encoding_bits,
            } => write!(
                f,
                "no buffer headroom: f_min {min_frame_bits} leaves nothing after \
                 the mandatory {line_encoding_bits} line-encoding bits"
            ),
            AnalysisError::InvalidParameter { name, value } => {
                write!(f, "parameter {name} = {value} outside its valid domain")
            }
        }
    }
}

impl Error for AnalysisError {}

/// Largest allowable frame (paper eq. 4):
/// `f_max = (f_min − 1 − le) / ρ`.
///
/// Obtained by equating the guardian's minimum buffer (eq. 1) with the
/// maximum it is allowed to have (eq. 3).
///
/// # Errors
///
/// [`AnalysisError::NoBufferRoom`] if the short-frame budget is already
/// exhausted by line encoding; [`AnalysisError::InvalidParameter`] if
/// `rho` is not in `(0, 1)`.
pub fn max_frame_bits(
    min_frame_bits: u32,
    line_encoding_bits: u32,
    rho: f64,
) -> Result<f64, AnalysisError> {
    if !(rho.is_finite() && rho > 0.0 && rho < 1.0) {
        return Err(AnalysisError::InvalidParameter {
            name: "rho",
            value: rho,
        });
    }
    let headroom = f64::from(min_frame_bits) - 1.0 - f64::from(line_encoding_bits);
    if headroom <= 0.0 {
        return Err(AnalysisError::NoBufferRoom {
            min_frame_bits,
            line_encoding_bits,
        });
    }
    Ok(headroom / rho)
}

/// Largest allowable relative clock-rate difference (paper eq. 7):
/// `ρ = (f_min − 1 − le) / f_max`.
///
/// # Errors
///
/// [`AnalysisError::NoBufferRoom`] if line encoding exhausts the
/// short-frame budget; [`AnalysisError::InvalidParameter`] if
/// `max_frame_bits == 0`.
pub fn max_rho(
    min_frame_bits: u32,
    max_frame_bits: u32,
    line_encoding_bits: u32,
) -> Result<f64, AnalysisError> {
    if max_frame_bits == 0 {
        return Err(AnalysisError::InvalidParameter {
            name: "max_frame_bits",
            value: 0.0,
        });
    }
    let headroom = f64::from(min_frame_bits) - 1.0 - f64::from(line_encoding_bits);
    if headroom <= 0.0 {
        return Err(AnalysisError::NoBufferRoom {
            min_frame_bits,
            line_encoding_bits,
        });
    }
    Ok(headroom / f64::from(max_frame_bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_types::constants::{
        I_FRAME_PROTOCOL_BITS, LINE_ENCODING_BITS, N_FRAME_MIN_BITS, X_FRAME_MAX_BITS,
    };

    #[test]
    fn paper_eq_six_115000_bits() {
        // f_max = (28 − 1 − 4) / 0.0002 = 115,000 bits.
        let f_max = max_frame_bits(N_FRAME_MIN_BITS, LINE_ENCODING_BITS, 0.0002).unwrap();
        assert!((f_max - 115_000.0).abs() < 1e-6);
    }

    #[test]
    fn paper_eq_eight_minimal_protocol_operation() {
        // ρ = (28 − 1 − 4) / 76 = 0.3026 → 30.26 %.
        let rho = max_rho(N_FRAME_MIN_BITS, I_FRAME_PROTOCOL_BITS, LINE_ENCODING_BITS).unwrap();
        assert!((rho - 23.0 / 76.0).abs() < 1e-12);
        assert_eq!(format!("{:.2}%", rho * 100.0), "30.26%");
    }

    #[test]
    fn paper_eq_nine_maximum_x_frames() {
        // ρ = (28 − 1 − 4) / 2076 = 0.0111 → 1.11 %.
        let rho = max_rho(N_FRAME_MIN_BITS, X_FRAME_MAX_BITS, LINE_ENCODING_BITS).unwrap();
        assert!((rho - 23.0 / 2076.0).abs() < 1e-12);
        assert_eq!(format!("{:.2}%", rho * 100.0), "1.11%");
    }

    #[test]
    fn eq_four_and_seven_are_inverses() {
        let rho = max_rho(28, 1000, 4).unwrap();
        let f_max = max_frame_bits(28, 4, rho).unwrap();
        assert!((f_max - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn larger_rate_differences_shrink_frames() {
        let tight = max_frame_bits(28, 4, 0.01).unwrap();
        let loose = max_frame_bits(28, 4, 0.001).unwrap();
        assert!(loose > tight);
    }

    #[test]
    fn exhausted_headroom_is_reported() {
        let err = max_frame_bits(5, 4, 0.01).unwrap_err();
        assert!(matches!(err, AnalysisError::NoBufferRoom { .. }));
        assert!(err.to_string().contains("line-encoding"));
        let err = max_rho(5, 100, 4).unwrap_err();
        assert!(matches!(err, AnalysisError::NoBufferRoom { .. }));
    }

    #[test]
    fn invalid_rho_is_reported() {
        for bad in [0.0, 1.0, -0.5, f64::NAN] {
            let err = max_frame_bits(28, 4, bad).unwrap_err();
            assert!(matches!(
                err,
                AnalysisError::InvalidParameter { name: "rho", .. }
            ));
        }
    }

    #[test]
    fn zero_frame_is_reported() {
        let err = max_rho(28, 0, 4).unwrap_err();
        assert!(matches!(
            err,
            AnalysisError::InvalidParameter {
                name: "max_frame_bits",
                ..
            }
        ));
    }
}
