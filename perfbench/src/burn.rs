//! The task-body burn: fixed integer work per unit of the model's
//! `iteration_cost`.
//!
//! Every wrapped task runs `iteration_cost / UNITS_PER_OP` steps of one
//! dependent integer chain (rotate, add, xor: each step needs the previous
//! result, so the steps cannot overlap or vectorize). The count depends on
//! the model alone: no clock is read and nothing is calibrated at run time,
//! so two builds run identical work, and a descheduled task finishes late
//! instead of finishing a shorter spin on time.

/// Model cost units per dependent integer step, one constant for every
/// workload.
pub const UNITS_PER_OP: u64 = 4;

/// Runs the integer chain for `units` model cost units; returns the chain's
/// last value so the optimizer cannot drop the loop.
#[inline(never)]
pub fn burn(units: u64) -> u64 {
    let mut x = std::hint::black_box(units | 1);
    for _ in 0..units / UNITS_PER_OP {
        x = x.rotate_left(7) ^ x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    }
    std::hint::black_box(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burn_is_a_pure_function_of_units() {
        assert_eq!(burn(4_000), burn(4_000));
        assert_ne!(burn(4_000), burn(4_004));
    }

    #[test]
    fn burn_time_grows_with_units() {
        // The chain must not be folded away: 64x the units costs clearly
        // more than 1x (a generous factor keeps this robust on a busy box).
        let time = |units| {
            let t = std::time::Instant::now();
            for _ in 0..8 {
                burn(units);
            }
            t.elapsed()
        };
        let (small, large) = (time(1 << 14), time(1 << 20));
        assert!(large > small * 8, "small {small:?} large {large:?}");
    }
}
