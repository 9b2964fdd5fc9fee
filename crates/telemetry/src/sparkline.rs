//! ASCII sparklines for sampled series.

/// The sparkline glyph ramp, lowest to highest.
const RAMP: [char; 8] = [
    '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}', '\u{2588}',
];

/// Renders `values` as a `width`-column sparkline: the values are
/// resampled into `width` equal-count windows (window mean), then
/// normalized min→max onto an 8-glyph ramp. An empty slice renders as
/// spaces.
pub fn sparkline(values: &[f64], width: usize) -> String {
    if width == 0 {
        return String::new();
    }
    if values.is_empty() {
        return " ".repeat(width);
    }
    // Resample into `width` windows by mean.
    let mut cols = Vec::with_capacity(width);
    for c in 0..width {
        let lo = c * values.len() / width;
        let hi = (((c + 1) * values.len()).div_ceil(width)).max(lo + 1);
        let hi = hi.min(values.len());
        let window = &values[lo.min(values.len() - 1)..hi];
        let mean = window.iter().sum::<f64>() / window.len() as f64;
        cols.push(mean);
    }
    let min = cols.iter().copied().fold(f64::INFINITY, f64::min);
    let max = cols.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    cols.iter()
        .map(|&v| {
            let t = if span > 0.0 { (v - min) / span } else { 0.0 };
            let i = ((t * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
            RAMP[i]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shape_tracks_values() {
        let ramp: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let line = sparkline(&ramp, 8);
        assert_eq!(line.chars().count(), 8);
        let first = line.chars().next().unwrap();
        let last = line.chars().last().unwrap();
        assert_eq!(first, RAMP[0]);
        assert_eq!(last, RAMP[7]);
    }

    #[test]
    fn sparkline_handles_flat_and_empty() {
        assert_eq!(sparkline(&[], 4), "    ");
        let flat = sparkline(&[2.0, 2.0, 2.0], 3);
        assert!(flat.chars().all(|c| c == RAMP[0]));
        assert_eq!(sparkline(&[1.0], 0), "");
    }

    #[test]
    fn sparkline_wider_than_data_repeats_windows() {
        let line = sparkline(&[1.0, 5.0], 6);
        assert_eq!(line.chars().count(), 6);
    }
}
