//! Unicode sparklines for quick curve visualization in terminal
//! output (`reclaim sweep`, experiment summaries).

/// Eight-level block characters.
const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render a series as a sparkline string. Values are scaled to the
/// series' own min..max range; an empty series renders empty, a
/// constant series renders mid-level blocks.
pub fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let range = hi - lo;
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                return '?';
            }
            if range <= 1e-300 {
                return LEVELS[3];
            }
            let idx = ((v - lo) / range * 7.0).round().clamp(0.0, 7.0) as usize;
            LEVELS[idx]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_series_renders_monotone() {
        let s = sparkline(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.chars().count(), 4);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[3], '█');
    }

    #[test]
    fn constant_and_empty() {
        assert_eq!(sparkline(&[]), "");
        let s = sparkline(&[2.0, 2.0, 2.0]);
        assert!(s.chars().all(|c| c == '▄'));
    }

    #[test]
    fn nan_marked() {
        let s = sparkline(&[1.0, f64::NAN, 2.0]);
        assert!(s.contains('?'));
    }
}
