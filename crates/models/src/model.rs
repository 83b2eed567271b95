//! The four energy models as one dispatchable type.

use crate::modes::{DiscreteModes, IncrementalModes};

/// An energy model = the set of admissible speed values plus whether
/// the speed may change during a task (paper §1, "Energy models").
#[derive(Debug, Clone, PartialEq)]
pub enum EnergyModel {
    /// **Continuous**: arbitrary speeds in `(0, s_max]`
    /// (`s_max = None` means unbounded — the `s_max = +∞` assumption
    /// of Theorem 2's series–parallel case). "Unrealistic but
    /// theoretically appealing."
    Continuous {
        /// Maximum speed, or `None` for unbounded.
        s_max: Option<f64>,
    },
    /// **Discrete**: a fixed set of modes, one constant speed per task.
    Discrete(DiscreteModes),
    /// **Vdd-Hopping**: the same mode set as Discrete but the speed
    /// may change during a task, so any intermediate *average* speed
    /// can be simulated by mixing modes.
    VddHopping(DiscreteModes),
    /// **Incremental**: one constant speed per task, chosen from the
    /// regular grid `s_min + i·δ`.
    Incremental(IncrementalModes),
}

impl EnergyModel {
    /// Unbounded continuous speeds.
    pub fn continuous_unbounded() -> EnergyModel {
        EnergyModel::Continuous { s_max: None }
    }

    /// Continuous speeds capped at `s_max`.
    pub fn continuous(s_max: f64) -> EnergyModel {
        assert!(s_max.is_finite() && s_max > 0.0);
        EnergyModel::Continuous { s_max: Some(s_max) }
    }

    /// The fastest admissible speed (`None` = unbounded).
    pub fn top_speed(&self) -> Option<f64> {
        match self {
            EnergyModel::Continuous { s_max } => *s_max,
            EnergyModel::Discrete(m) | EnergyModel::VddHopping(m) => Some(m.s_max()),
            EnergyModel::Incremental(m) => Some(m.top_mode()),
        }
    }

    /// The slowest admissible nonzero speed (`None` for Continuous,
    /// which admits arbitrarily slow speeds).
    pub fn bottom_speed(&self) -> Option<f64> {
        match self {
            EnergyModel::Continuous { .. } => None,
            EnergyModel::Discrete(m) | EnergyModel::VddHopping(m) => Some(m.s_min()),
            EnergyModel::Incremental(m) => Some(m.s_min()),
        }
    }

    /// Whether a *constant* task speed `s` is admissible under this
    /// model. (For Vdd-Hopping, any speed in `[s_1, s_m]` is reachable
    /// as an average by mixing modes.)
    pub fn admits_constant_speed(&self, s: f64) -> bool {
        if !(s.is_finite() && s > 0.0) {
            return false;
        }
        match self {
            // The bound is chosen before any arithmetic: an absent cap
            // is +∞, never the undefined payload of `None`, which a
            // branchless `is_none_or` would multiply for every task.
            EnergyModel::Continuous { s_max } => s <= s_max.unwrap_or(f64::INFINITY) * (1.0 + 1e-9),
            EnergyModel::Discrete(m) => m.contains(s),
            EnergyModel::VddHopping(m) => {
                s >= m.s_min() * (1.0 - 1e-9) && s <= m.s_max() * (1.0 + 1e-9)
            }
            EnergyModel::Incremental(m) => {
                if s < m.s_min() * (1.0 - 1e-9) || s > m.top_mode() * (1.0 + 1e-9) {
                    return false;
                }
                let i = (s - m.s_min()) / m.delta();
                (i - i.round()).abs() <= 1e-6
            }
        }
    }

    /// Whether speeds may change during the execution of a task.
    pub fn allows_mid_task_switch(&self) -> bool {
        matches!(
            self,
            EnergyModel::Continuous { .. } | EnergyModel::VddHopping(_)
        )
    }

    /// Short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            EnergyModel::Continuous { .. } => "Continuous",
            EnergyModel::Discrete(_) => "Discrete",
            EnergyModel::VddHopping(_) => "Vdd-Hopping",
            EnergyModel::Incremental(_) => "Incremental",
        }
    }
}

impl std::fmt::Display for EnergyModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnergyModel::Continuous { s_max: None } => write!(f, "Continuous(s ≤ ∞)"),
            EnergyModel::Continuous { s_max: Some(m) } => write!(f, "Continuous(s ≤ {m})"),
            EnergyModel::Discrete(m) => write!(f, "Discrete{:?}", m.speeds()),
            EnergyModel::VddHopping(m) => write!(f, "Vdd-Hopping{:?}", m.speeds()),
            EnergyModel::Incremental(m) => write!(
                f,
                "Incremental[{}..{} step {}]",
                m.s_min(),
                m.s_max(),
                m.delta()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continuous_speed_admission() {
        let unb = EnergyModel::continuous_unbounded();
        assert!(unb.admits_constant_speed(1e9));
        assert!(!unb.admits_constant_speed(0.0));
        assert!(!unb.admits_constant_speed(f64::NAN));
        let cap = EnergyModel::continuous(2.0);
        assert!(cap.admits_constant_speed(2.0));
        assert!(!cap.admits_constant_speed(2.1));
        assert_eq!(cap.top_speed(), Some(2.0));
        assert_eq!(cap.bottom_speed(), None);
    }

    #[test]
    fn discrete_vs_vdd_admission() {
        let modes = DiscreteModes::new(&[1.0, 2.0, 4.0]).unwrap();
        let disc = EnergyModel::Discrete(modes.clone());
        let vdd = EnergyModel::VddHopping(modes);
        // 3.0 is not a mode: inadmissible as a constant Discrete speed,
        // but reachable on average under Vdd-Hopping.
        assert!(!disc.admits_constant_speed(3.0));
        assert!(vdd.admits_constant_speed(3.0));
        assert!(disc.admits_constant_speed(2.0));
        assert!(!vdd.admits_constant_speed(4.5));
        assert!(!disc.allows_mid_task_switch());
        assert!(vdd.allows_mid_task_switch());
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            EnergyModel::continuous(2.0).to_string(),
            "Continuous(s ≤ 2)"
        );
        assert!(EnergyModel::continuous_unbounded()
            .to_string()
            .contains('∞'));
        let m = DiscreteModes::new(&[1.0, 2.0]).unwrap();
        assert!(EnergyModel::Discrete(m.clone())
            .to_string()
            .starts_with("Discrete"));
        assert!(EnergyModel::VddHopping(m).to_string().contains("Vdd"));
        let inc = IncrementalModes::new(1.0, 2.0, 0.5).unwrap();
        assert_eq!(
            EnergyModel::Incremental(inc).to_string(),
            "Incremental[1..2 step 0.5]"
        );
    }

    #[test]
    fn incremental_admission_is_grid_only() {
        let inc = EnergyModel::Incremental(IncrementalModes::new(1.0, 2.0, 0.25).unwrap());
        assert!(inc.admits_constant_speed(1.25));
        assert!(!inc.admits_constant_speed(1.3));
        assert!(!inc.admits_constant_speed(0.75));
        assert_eq!(inc.top_speed(), Some(2.0));
        assert_eq!(inc.bottom_speed(), Some(1.0));
        assert_eq!(inc.name(), "Incremental");
    }
}
