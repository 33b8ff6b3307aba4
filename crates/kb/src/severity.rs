//! The clinical severity model: interaction grades, evidence levels and the
//! alert policy that gates what a critique reports.
//!
//! Real critiquing systems grade every interaction and let the deployment
//! decide how much to surface — an ICU formulary wants every `Minor` footnote,
//! a busy outpatient clinic wants `Major` and up, and *everyone* wants
//! contraindicated combinations to fire unconditionally. [`Severity`] is the
//! grade, [`EvidenceLevel`] records how well-established the fact is, and
//! [`AlertPolicy`] is the per-request filter.

use std::fmt;

use dssddi_graph::Interaction;

/// Clinical severity of a drug-drug interaction, ordered from least to most
/// severe. The ordering is total: every pair of severities compares, and the
/// alert policy's threshold test relies on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Documented but clinically insignificant; no action needed.
    Minor,
    /// May require monitoring or dose adjustment. The default grade for
    /// interactions of unknown severity.
    Moderate,
    /// Clinically significant; use only when benefits outweigh risks.
    Major,
    /// The combination must not be prescribed.
    Contraindicated,
}

impl Severity {
    /// Every severity, in ascending order.
    pub const ALL: [Severity; 4] = [
        Severity::Minor,
        Severity::Moderate,
        Severity::Major,
        Severity::Contraindicated,
    ];

    /// Canonical lower-case name (the TSV source format's spelling).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Minor => "minor",
            Severity::Moderate => "moderate",
            Severity::Major => "major",
            Severity::Contraindicated => "contraindicated",
        }
    }

    /// Stable wire/container encoding.
    pub fn to_u8(self) -> u8 {
        match self {
            Severity::Minor => 0,
            Severity::Moderate => 1,
            Severity::Major => 2,
            Severity::Contraindicated => 3,
        }
    }

    /// Decodes [`Severity::to_u8`]; unknown bytes are `None` so decoders can
    /// produce their own typed error.
    pub fn from_u8(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => Severity::Minor,
            1 => Severity::Moderate,
            2 => Severity::Major,
            3 => Severity::Contraindicated,
            _ => return None,
        })
    }

    /// Parses a TSV severity cell (case-insensitive, surrounding whitespace
    /// ignored).
    pub fn parse(cell: &str) -> Option<Self> {
        let cell = cell.trim();
        Severity::ALL
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(cell))
    }

    /// The grade assumed for an interaction the knowledge base has no fact
    /// for: antagonistic edges default to [`Severity::Moderate`] (unknown
    /// severity is not license to ignore them), synergistic and explicit
    /// no-interaction edges to [`Severity::Minor`].
    pub fn default_for(interaction: Interaction) -> Self {
        match interaction {
            Interaction::Antagonistic => Severity::Moderate,
            Interaction::Synergistic | Interaction::None => Severity::Minor,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How well-established a knowledge-base fact is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EvidenceLevel {
    /// Predicted from pharmacology or a model; not clinically observed.
    /// The grade for facts ingested from the DDI graph.
    Theoretical,
    /// Reported in isolated case reports.
    CaseReport,
    /// Demonstrated in a controlled study.
    Study,
    /// Established, guideline-level knowledge.
    Established,
}

impl EvidenceLevel {
    /// Every evidence level, in ascending order of strength.
    pub const ALL: [EvidenceLevel; 4] = [
        EvidenceLevel::Theoretical,
        EvidenceLevel::CaseReport,
        EvidenceLevel::Study,
        EvidenceLevel::Established,
    ];

    /// Canonical lower-case name (the TSV source format's spelling).
    pub fn name(self) -> &'static str {
        match self {
            EvidenceLevel::Theoretical => "theoretical",
            EvidenceLevel::CaseReport => "case-report",
            EvidenceLevel::Study => "study",
            EvidenceLevel::Established => "established",
        }
    }

    /// Stable wire/container encoding.
    pub fn to_u8(self) -> u8 {
        match self {
            EvidenceLevel::Theoretical => 0,
            EvidenceLevel::CaseReport => 1,
            EvidenceLevel::Study => 2,
            EvidenceLevel::Established => 3,
        }
    }

    /// Decodes [`EvidenceLevel::to_u8`]; unknown bytes are `None`.
    pub fn from_u8(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => EvidenceLevel::Theoretical,
            1 => EvidenceLevel::CaseReport,
            2 => EvidenceLevel::Study,
            3 => EvidenceLevel::Established,
            _ => return None,
        })
    }

    /// Parses a TSV evidence cell (case-insensitive, surrounding whitespace
    /// ignored).
    pub fn parse(cell: &str) -> Option<Self> {
        let cell = cell.trim();
        EvidenceLevel::ALL
            .into_iter()
            .find(|e| e.name().eq_ignore_ascii_case(cell))
    }
}

impl fmt::Display for EvidenceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a prescription critique reports, decided per request.
///
/// A finding is reported when its severity reaches `min_severity`.
/// Independently of the threshold, `contraindicated_always_fires` (on by
/// default) guarantees [`Severity::Contraindicated`] findings are *never*
/// suppressed — with today's four-grade ladder the threshold alone cannot
/// hide them, but the flag keeps that clinical invariant explicit and
/// binding for any future policy knob (muting, per-ward overrides) that
/// could otherwise swallow a hard stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AlertPolicy {
    /// Minimum severity a finding must reach to appear in the report.
    pub min_severity: Severity,
    /// Report [`Severity::Contraindicated`] findings even when another
    /// policy setting would suppress them.
    pub contraindicated_always_fires: bool,
}

impl Default for AlertPolicy {
    /// Report everything — the conservative clinical default.
    fn default() -> Self {
        AlertPolicy {
            min_severity: Severity::Minor,
            contraindicated_always_fires: true,
        }
    }
}

impl AlertPolicy {
    /// A policy reporting findings of `min_severity` and up (contraindicated
    /// findings always fire).
    pub fn at_least(min_severity: Severity) -> Self {
        AlertPolicy {
            min_severity,
            ..Default::default()
        }
    }

    /// True when a finding of this severity must appear in the report.
    pub fn reports(&self, severity: Severity) -> bool {
        if self.contraindicated_always_fires && severity == Severity::Contraindicated {
            return true;
        }
        severity >= self.min_severity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_minor_to_contraindicated() {
        for pair in Severity::ALL.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        assert!(Severity::Contraindicated > Severity::Minor);
    }

    #[test]
    fn severity_and_evidence_round_trip_names_and_bytes() {
        for s in Severity::ALL {
            assert_eq!(Severity::parse(s.name()), Some(s));
            assert_eq!(Severity::parse(&s.name().to_uppercase()), Some(s));
            assert_eq!(Severity::from_u8(s.to_u8()), Some(s));
        }
        assert_eq!(Severity::parse("catastrophic"), None);
        assert_eq!(Severity::from_u8(200), None);
        for e in EvidenceLevel::ALL {
            assert_eq!(EvidenceLevel::parse(e.name()), Some(e));
            assert_eq!(EvidenceLevel::from_u8(e.to_u8()), Some(e));
        }
        assert_eq!(EvidenceLevel::parse("vibes"), None);
        assert_eq!(EvidenceLevel::from_u8(200), None);
    }

    #[test]
    fn default_grades_follow_the_interaction_sign() {
        assert_eq!(
            Severity::default_for(Interaction::Antagonistic),
            Severity::Moderate
        );
        assert_eq!(
            Severity::default_for(Interaction::Synergistic),
            Severity::Minor
        );
        assert_eq!(Severity::default_for(Interaction::None), Severity::Minor);
    }

    #[test]
    fn alert_policy_thresholds_and_contraindicated_guarantee() {
        let default = AlertPolicy::default();
        for s in Severity::ALL {
            assert!(default.reports(s), "default policy reports everything");
        }
        let major_up = AlertPolicy::at_least(Severity::Major);
        assert!(!major_up.reports(Severity::Minor));
        assert!(!major_up.reports(Severity::Moderate));
        assert!(major_up.reports(Severity::Major));
        assert!(major_up.reports(Severity::Contraindicated));
        // Even with the guarantee flag off, the threshold still admits
        // contraindicated findings (they top the ladder) ...
        let no_guarantee = AlertPolicy {
            min_severity: Severity::Contraindicated,
            contraindicated_always_fires: false,
        };
        assert!(no_guarantee.reports(Severity::Contraindicated));
        assert!(!no_guarantee.reports(Severity::Major));
        // ... and with it on, contraindicated findings fire under every
        // threshold, which is the invariant the flag exists to pin down.
        for min in Severity::ALL {
            assert!(AlertPolicy::at_least(min).reports(Severity::Contraindicated));
        }
    }
}
