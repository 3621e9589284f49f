//! Order statistics over repetition samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the two
/// nearest order statistics.
///
/// # Panics
/// Panics on an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Pieces a repetition is timed in, at most (see [`undisturbed`]): a few
/// milliseconds of work each for repetitions of 0.1-0.5 s.
pub const PIECES: usize = 50;

/// The quantile of a piece of work's repeated timings that stands for the
/// piece on an undisturbed machine (see [`undisturbed`]).
const UNDISTURBED: f64 = 0.1;

/// What one repetition of fixed work takes when nothing else wants the
/// machine. Each repetition is timed in the same consecutive pieces
/// (`reps[i][k]` is piece `k` of repetition `i`, a few milliseconds of
/// work); the result is the sum over pieces of the piece's low decile across
/// repetitions.
///
/// A neighbour on the shared host only ever adds time, in bursts from under
/// a millisecond to seconds long. A whole repetition (a tenth to half of a
/// second) is rarely free of them, so the median repetition moves with the
/// neighbour's load: by 15-50 % between runs of the same code on a busy
/// host. A piece of a few milliseconds is often free of them, and its low
/// decile over some tens of repetitions moves two to four times less. The
/// pieces are long enough to average the program's own jitter (a piece is
/// 80 Bfs rounds, 2 000 small messages), so this is not a sum of lucky
/// minima: on a quiet host it reads 3 % (streams) to 15 % (Bfs chains) under
/// the median repetition. README.md, "Undisturbed time", has the numbers.
///
/// # Panics
/// Panics if no repetition has a piece.
pub fn undisturbed(reps: &[Vec<f64>]) -> f64 {
    let pieces = reps.iter().map(Vec::len).max().unwrap_or(0);
    assert!(pieces > 0, "no timed piece");
    (0..pieces)
        .map(|k| {
            let piece: Vec<f64> = reps.iter().filter_map(|rep| rep.get(k).copied()).collect();
            quantile(&piece, UNDISTURBED)
        })
        .sum()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the driver computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    assert!(n >= 2, "quartiles need two values");
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn undisturbed_takes_each_piece_where_it_was_not_hit() {
        // Every repetition was hit somewhere, none in the same place.
        let mut reps = vec![vec![1.0, 2.0, 3.0]; 11];
        for (i, rep) in reps.iter_mut().enumerate() {
            rep[i % 3] += 10.0;
        }
        assert_eq!(undisturbed(&reps), 6.0);
        // A repetition with a piece more (a round more) still counts.
        reps[0].push(4.0);
        assert_eq!(undisturbed(&reps), 10.0);
    }

    #[test]
    fn quartiles_follow_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 1, 7], n=4)
        assert_eq!(quartiles(&[10.0, 1.0, 7.0]), [1.0, 7.0, 10.0]);
    }
}
