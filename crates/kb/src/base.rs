//! The versioned, registry-aware knowledge base and its `DSKB` container.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use dssddi_data::DrugRegistry;
use dssddi_graph::{Interaction, SignedGraph};
use dssddi_tensor::serde::{
    open_frame, parse_frame_header, seal_frame, ByteReader, ByteWriter, SerdeError,
};

use crate::severity::{EvidenceLevel, Severity};
use crate::KbError;

/// Magic bytes opening every knowledge-base container ("DSsddi KB").
pub const KB_MAGIC: [u8; 4] = *b"DSKB";

/// Current `DSKB` container format version.
pub const KB_FORMAT_VERSION: u16 = 1;

/// Upper bound on a `DSKB` container's declared payload length, enforced
/// before any allocation. A fully dense KB over a 10k-drug formulary with
/// generous free text is still far below this.
pub const MAX_KB_PAYLOAD: usize = 64 << 20;

/// Number of TSV columns in the source format:
/// `drug_a  drug_b  severity  evidence  mechanism  management`.
const TSV_COLUMNS: usize = 6;

/// One severity-graded interaction fact, keyed by a canonical drug pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KbFact {
    /// How severe the interaction is.
    pub severity: Severity,
    /// How well-established the fact is.
    pub evidence: EvidenceLevel,
    /// Free-text mechanism ("additive QT prolongation", ...). May be empty.
    pub mechanism: String,
    /// Free-text management hint shown to the prescriber ("monitor INR",
    /// "separate doses by 4 h", ...). May be empty.
    pub management: String,
}

impl KbFact {
    /// The management hint, with the empty string normalised to `None` —
    /// the single place deciding when a hint is worth surfacing.
    pub fn management_hint(&self) -> Option<&str> {
        (!self.management.is_empty()).then_some(self.management.as_str())
    }
}

/// Counts returned by one ingestion call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestSummary {
    /// Pairs the knowledge base had no fact for.
    pub added: usize,
    /// Pairs whose existing fact was overwritten.
    pub updated: usize,
}

/// A summary of one knowledge base: what a gateway advertises about a
/// shard's KB so remote callers can verify versions without pulling facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KbInfo {
    /// The KB's monotonically increasing version.
    pub version: u64,
    /// Total number of interaction facts.
    pub n_facts: usize,
    /// Facts per severity grade, indexed by [`Severity::to_u8`].
    pub facts_by_severity: [usize; 4],
    /// FNV digest of the formulary the KB grades (see
    /// [`DrugRegistry::digest`]).
    pub registry_digest: u64,
    /// Number of drugs in that formulary.
    pub n_drugs: usize,
}

/// One entry of a [`KbDiff`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KbChange {
    /// The newer KB has a fact the older one lacked.
    Added {
        /// Canonical drug pair (`a < b`).
        pair: (usize, usize),
        /// The new fact.
        fact: KbFact,
    },
    /// The older KB had a fact the newer one dropped.
    Removed {
        /// Canonical drug pair (`a < b`).
        pair: (usize, usize),
        /// The dropped fact.
        fact: KbFact,
    },
    /// Both have a fact for the pair, with different content.
    Changed {
        /// Canonical drug pair (`a < b`).
        pair: (usize, usize),
        /// The older fact.
        old: KbFact,
        /// The newer fact.
        new: KbFact,
    },
}

/// Typed difference between two knowledge-base versions, in canonical pair
/// order — what an operator reviews before hot-reloading a gateway shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KbDiff {
    /// Version of the older side.
    pub from_version: u64,
    /// Version of the newer side.
    pub to_version: u64,
    /// Every added, removed or changed fact, in canonical pair order.
    pub changes: Vec<KbChange>,
}

impl KbDiff {
    /// True when the two sides hold identical facts.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// `(added, removed, changed)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for change in &self.changes {
            match change {
                KbChange::Added { .. } => counts.0 += 1,
                KbChange::Removed { .. } => counts.1 += 1,
                KbChange::Changed { .. } => counts.2 += 1,
            }
        }
        counts
    }
}

impl fmt::Display for KbDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (added, removed, changed) = self.counts();
        write!(
            f,
            "kb v{} -> v{}: {added} added, {removed} removed, {changed} changed",
            self.from_version, self.to_version
        )
    }
}

/// A versioned clinical knowledge base of severity-graded drug-drug
/// interaction facts over one formulary.
///
/// Facts are keyed by the canonical (lower DID first) drug pair. The base
/// remembers which [`DrugRegistry`] it grades — digest plus drug count — so
/// a KB built for one formulary cannot be attached to a service holding
/// another. `version` increases by one on every mutating call, giving
/// operators a monotone handle for "is the reload live yet?" checks and for
/// [`KnowledgeBase::diff`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnowledgeBase {
    n_drugs: usize,
    registry_digest: u64,
    version: u64,
    facts: BTreeMap<(usize, usize), KbFact>,
}

impl KnowledgeBase {
    /// An empty knowledge base (version 0) over a formulary.
    pub fn new(registry: &DrugRegistry) -> Self {
        Self {
            n_drugs: registry.len(),
            registry_digest: registry.digest(),
            version: 0,
            facts: BTreeMap::new(),
        }
    }

    /// Seeds a knowledge base from the signed DDI graph: every synergistic
    /// or antagonistic edge becomes a [`EvidenceLevel::Theoretical`] fact
    /// graded by [`Severity::default_for`] — antagonistic edges of unknown
    /// severity default to [`Severity::Moderate`]. Explicit no-interaction
    /// edges are skipped. The result is version 1 (one mutation on top of
    /// the empty base).
    pub fn from_ddi_graph(graph: &SignedGraph, registry: &DrugRegistry) -> Result<Self, KbError> {
        if graph.node_count() != registry.len() {
            return Err(KbError::RegistryMismatch {
                what: format!(
                    "DDI graph has {} nodes but the registry has {} drugs",
                    graph.node_count(),
                    registry.len()
                ),
            });
        }
        let mut kb = Self::new(registry);
        for (u, v, interaction) in graph.interactions() {
            if interaction == Interaction::None {
                continue;
            }
            kb.facts.insert(
                (u.min(v), u.max(v)),
                KbFact {
                    severity: Severity::default_for(interaction),
                    evidence: EvidenceLevel::Theoretical,
                    mechanism: String::new(),
                    management: String::new(),
                },
            );
        }
        kb.version = 1;
        Ok(kb)
    }

    /// The KB's monotonically increasing version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of interaction facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True when the KB holds no fact.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// FNV digest of the formulary this KB grades.
    pub fn registry_digest(&self) -> u64 {
        self.registry_digest
    }

    /// Number of drugs in that formulary.
    pub fn n_drugs(&self) -> usize {
        self.n_drugs
    }

    /// The fact recorded for a drug pair, in either argument order.
    pub fn lookup(&self, a: usize, b: usize) -> Option<&KbFact> {
        self.facts.get(&(a.min(b), a.max(b)))
    }

    /// Every fact, in canonical pair order.
    pub fn facts(&self) -> impl Iterator<Item = ((usize, usize), &KbFact)> + '_ {
        self.facts.iter().map(|(&pair, fact)| (pair, fact))
    }

    /// The KB's summary (version, fact counts per severity, formulary
    /// identity).
    #[expect(
        clippy::indexing_slicing,
        reason = "`Severity::to_u8` is below 4, one counter per severity"
    )]
    pub fn info(&self) -> KbInfo {
        let mut facts_by_severity = [0usize; 4];
        for fact in self.facts.values() {
            facts_by_severity[fact.severity.to_u8() as usize] += 1;
        }
        KbInfo {
            version: self.version,
            n_facts: self.facts.len(),
            facts_by_severity,
            registry_digest: self.registry_digest,
            n_drugs: self.n_drugs,
        }
    }

    /// Inserts or overwrites the fact for one drug pair and bumps the
    /// version. The pair must name two distinct drugs inside the formulary.
    pub fn upsert(&mut self, a: usize, b: usize, fact: KbFact) -> Result<(), KbError> {
        if a == b {
            return Err(KbError::SelfInteraction { line: 0, drug: a });
        }
        if a >= self.n_drugs || b >= self.n_drugs {
            return Err(KbError::RegistryMismatch {
                what: format!(
                    "drug pair ({a}, {b}) falls outside the {}-drug formulary",
                    self.n_drugs
                ),
            });
        }
        self.facts.insert((a.min(b), a.max(b)), fact);
        self.version += 1;
        Ok(())
    }

    /// Ingests the TSV source format, resolving drug references through the
    /// registry and bumping the version once if any row landed.
    ///
    /// One fact per line: `drug_a<TAB>drug_b<TAB>severity<TAB>evidence<TAB>
    /// mechanism<TAB>management` (mechanism and management may be empty;
    /// trailing empty cells may be omitted entirely). Blank lines and lines
    /// starting with `#` are skipped. Drug cells take anything
    /// [`DrugRegistry::resolve`] takes — a name, `"48"` or `"DID 48"`.
    /// Within one file the last fact for a pair wins (facts are ordered
    /// corrections). Every malformed row is a typed [`KbError`] naming its
    /// 1-based line number; parsing never panics.
    pub fn ingest_tsv(
        &mut self,
        source: &str,
        registry: &DrugRegistry,
    ) -> Result<IngestSummary, KbError> {
        if registry.len() != self.n_drugs || registry.digest() != self.registry_digest {
            return Err(KbError::RegistryMismatch {
                what: "the resolving registry is not the formulary this KB was built for"
                    .to_string(),
            });
        }
        // Parse the whole file before touching `self.facts`, so a malformed
        // row cannot leave a half-applied update behind. Staging in a map
        // also collapses repeated pairs (last row wins) before counting, so
        // the summary reflects what actually changed in the KB.
        let mut parsed: BTreeMap<(usize, usize), KbFact> = BTreeMap::new();
        for (idx, raw_line) in source.lines().enumerate() {
            let line = idx + 1;
            let trimmed = raw_line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let cells: Vec<&str> = raw_line.split('\t').collect();
            if cells.len() < 4 || cells.len() > TSV_COLUMNS {
                return Err(KbError::Parse {
                    line,
                    what: format!(
                        "expected 4 to {TSV_COLUMNS} tab-separated cells \
                         (drug_a, drug_b, severity, evidence[, mechanism[, management]]), \
                         found {}",
                        cells.len()
                    ),
                });
            }
            let resolve = |cell: &str| -> Result<usize, KbError> {
                registry
                    .resolve(cell.trim())
                    .ok_or_else(|| KbError::UnknownDrug {
                        line,
                        query: cell.trim().to_string(),
                    })
            };
            #[expect(
                clippy::indexing_slicing,
                reason = "rows with fewer than 4 cells are rejected above"
            )]
            let a = resolve(cells[0])?;
            #[expect(
                clippy::indexing_slicing,
                reason = "rows with fewer than 4 cells are rejected above"
            )]
            let b = resolve(cells[1])?;
            if a == b {
                return Err(KbError::SelfInteraction { line, drug: a });
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "rows with fewer than 4 cells are rejected above"
            )]
            let severity = Severity::parse(cells[2]).ok_or_else(|| KbError::Parse {
                line,
                what: format!(
                    "unknown severity {:?} (expected one of: minor, moderate, major, \
                     contraindicated)",
                    cells[2].trim()
                ),
            })?;
            #[expect(
                clippy::indexing_slicing,
                reason = "rows with fewer than 4 cells are rejected above"
            )]
            let evidence = EvidenceLevel::parse(cells[3]).ok_or_else(|| KbError::Parse {
                line,
                what: format!(
                    "unknown evidence level {:?} (expected one of: theoretical, case-report, \
                     study, established)",
                    cells[3].trim()
                ),
            })?;
            let mechanism = cells.get(4).map(|c| c.trim()).unwrap_or("").to_string();
            let management = cells.get(5).map(|c| c.trim()).unwrap_or("").to_string();
            parsed.insert(
                (a.min(b), a.max(b)),
                KbFact {
                    severity,
                    evidence,
                    mechanism,
                    management,
                },
            );
        }
        let mut summary = IngestSummary::default();
        for (pair, fact) in parsed {
            if self.facts.insert(pair, fact).is_some() {
                summary.updated += 1;
            } else {
                summary.added += 1;
            }
        }
        if summary.added + summary.updated > 0 {
            self.version += 1;
        }
        Ok(summary)
    }

    /// Typed difference from `self` (the older side) to `newer`, in
    /// canonical pair order. Both sides must grade the same formulary.
    pub fn diff(&self, newer: &KnowledgeBase) -> Result<KbDiff, KbError> {
        if self.registry_digest != newer.registry_digest || self.n_drugs != newer.n_drugs {
            return Err(KbError::RegistryMismatch {
                what: "cannot diff knowledge bases over different formularies".to_string(),
            });
        }
        let mut changes = Vec::new();
        let mut old_iter = self.facts.iter().peekable();
        let mut new_iter = newer.facts.iter().peekable();
        loop {
            match (old_iter.peek(), new_iter.peek()) {
                (Some((&op, old)), Some((&np, _))) if op < np => {
                    changes.push(KbChange::Removed {
                        pair: op,
                        fact: (*old).clone(),
                    });
                    old_iter.next();
                }
                (Some((&op, _)), Some((&np, new))) if np < op => {
                    changes.push(KbChange::Added {
                        pair: np,
                        fact: (*new).clone(),
                    });
                    new_iter.next();
                }
                (Some((&pair, old)), Some((_, new))) => {
                    if *old != *new {
                        changes.push(KbChange::Changed {
                            pair,
                            old: (*old).clone(),
                            new: (*new).clone(),
                        });
                    }
                    old_iter.next();
                    new_iter.next();
                }
                (Some((&pair, old)), None) => {
                    changes.push(KbChange::Removed {
                        pair,
                        fact: (*old).clone(),
                    });
                    old_iter.next();
                }
                (None, Some((&pair, new))) => {
                    changes.push(KbChange::Added {
                        pair,
                        fact: (*new).clone(),
                    });
                    new_iter.next();
                }
                (None, None) => break,
            }
        }
        Ok(KbDiff {
            from_version: self.version,
            to_version: newer.version,
            changes,
        })
    }

    /// Serializes the KB into a complete `DSKB` container: the frame of
    /// [`dssddi_tensor::serde`] (magic, format version, payload length,
    /// payload, CRC-32) under [`KB_MAGIC`] and [`KB_FORMAT_VERSION`].
    pub fn to_container_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_usize(self.n_drugs);
        w.put_u64(self.registry_digest);
        w.put_u64(self.version);
        w.put_usize(self.facts.len());
        for ((a, b), fact) in &self.facts {
            w.put_usize(*a);
            w.put_usize(*b);
            w.put_u8(fact.severity.to_u8());
            w.put_u8(fact.evidence.to_u8());
            w.put_str(&fact.mechanism);
            w.put_str(&fact.management);
        }
        seal_frame(KB_MAGIC, KB_FORMAT_VERSION, w.as_bytes())
    }

    /// Decodes a container produced by [`KnowledgeBase::to_container_bytes`].
    ///
    /// Fully defensive: bad magic, version mismatches, truncation, flipped
    /// bits (CRC), oversized declared lengths, out-of-range pairs and
    /// unknown severity/evidence bytes all produce typed [`KbError`]s —
    /// never a panic, never an allocation sized from an unvalidated length.
    pub fn from_container_bytes(bytes: &[u8]) -> Result<Self, KbError> {
        // Same pre-allocation guard as the wire protocol: validate the
        // header (magic, version) and cap the declared length before
        // `open_frame` compares it against the bytes actually present.
        let (_, declared) = parse_frame_header(KB_MAGIC, &[KB_FORMAT_VERSION], bytes)?;
        if declared > MAX_KB_PAYLOAD {
            return Err(KbError::Serde(SerdeError::Corrupt {
                what: format!(
                    "declared KB payload of {declared} bytes exceeds the \
                     {MAX_KB_PAYLOAD}-byte limit"
                ),
            }));
        }
        let (_, payload) = open_frame(KB_MAGIC, &[KB_FORMAT_VERSION], bytes)?;
        let mut r = ByteReader::new(payload);
        let n_drugs = r.take_usize("kb.n_drugs")?;
        let registry_digest = r.take_u64("kb.registry_digest")?;
        let version = r.take_u64("kb.version")?;
        let n_facts = r.take_usize("kb.n_facts")?;
        let mut facts = BTreeMap::new();
        for _ in 0..n_facts {
            let a = r.take_usize("kb.fact.a")?;
            let b = r.take_usize("kb.fact.b")?;
            if a >= b || b >= n_drugs {
                return Err(KbError::Serde(SerdeError::Corrupt {
                    what: format!(
                        "fact pair ({a}, {b}) is not canonical within a {n_drugs}-drug formulary"
                    ),
                }));
            }
            let severity_byte = r.take_u8("kb.fact.severity")?;
            let severity =
                Severity::from_u8(severity_byte).ok_or(KbError::Serde(SerdeError::Corrupt {
                    what: format!("unknown severity byte {severity_byte}"),
                }))?;
            let evidence_byte = r.take_u8("kb.fact.evidence")?;
            let evidence = EvidenceLevel::from_u8(evidence_byte).ok_or(KbError::Serde(
                SerdeError::Corrupt {
                    what: format!("unknown evidence byte {evidence_byte}"),
                },
            ))?;
            let mechanism = r.take_str("kb.fact.mechanism")?;
            let management = r.take_str("kb.fact.management")?;
            if facts
                .insert(
                    (a, b),
                    KbFact {
                        severity,
                        evidence,
                        mechanism,
                        management,
                    },
                )
                .is_some()
            {
                return Err(KbError::Serde(SerdeError::Corrupt {
                    what: format!("duplicate fact for pair ({a}, {b})"),
                }));
            }
        }
        if !r.is_exhausted() {
            return Err(KbError::Serde(SerdeError::Corrupt {
                what: format!("{} trailing bytes after the last fact", r.remaining()),
            }));
        }
        Ok(Self {
            n_drugs,
            registry_digest,
            version,
            facts,
        })
    }

    /// Writes the `DSKB` container to a file crash-safely: the bytes are
    /// staged in a temporary sibling, synced, and renamed into place
    /// atomically (see [`dssddi_tensor::serde::atomic_write`]), so a writer
    /// killed mid-save, or a power loss, leaves the previous knowledge base
    /// or the new one — never a torn container.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), KbError> {
        dssddi_tensor::serde::atomic_write(path, &self.to_container_bytes()).map_err(|e| match e {
            SerdeError::Io { what } => KbError::Io { what },
            other => KbError::Serde(other),
        })
    }

    /// Loads a `DSKB` container from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, KbError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| KbError::Io {
            what: format!("reading {}: {e}", path.display()),
        })?;
        Self::from_container_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssddi_data::{generate_ddi_graph, DdiConfig};
    use dssddi_tensor::serde::FRAME_HEADER_LEN;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn registry() -> DrugRegistry {
        DrugRegistry::standard()
    }

    fn fact(severity: Severity) -> KbFact {
        KbFact {
            severity,
            evidence: EvidenceLevel::Study,
            mechanism: "mechanism".to_string(),
            management: "management".to_string(),
        }
    }

    #[test]
    fn versions_increase_monotonically_per_mutation() {
        let registry = registry();
        let mut kb = KnowledgeBase::new(&registry);
        assert_eq!(kb.version(), 0);
        kb.upsert(1, 2, fact(Severity::Major)).unwrap();
        assert_eq!(kb.version(), 1);
        kb.upsert(2, 1, fact(Severity::Minor)).unwrap();
        assert_eq!(kb.version(), 2);
        assert_eq!(kb.len(), 1, "pairs are canonical in either order");
        assert_eq!(kb.lookup(1, 2).unwrap().severity, Severity::Minor);
        // An ingest that lands nothing does not bump the version.
        let before = kb.version();
        kb.ingest_tsv("# only a comment\n\n", &registry).unwrap();
        assert_eq!(kb.version(), before);
    }

    #[test]
    fn tsv_rows_resolve_names_ids_and_did_references() {
        let registry = registry();
        let mut kb = KnowledgeBase::new(&registry);
        let tsv = "Metformin\tGliclazide\tmajor\tstudy\tadditive hypoglycaemia\tmonitor glucose\n\
                   # a comment between rows\n\
                   DID 61\t59\tcontraindicated\testablished\t\tdo not combine\n";
        let summary = kb.ingest_tsv(tsv, &registry).unwrap();
        assert_eq!(
            summary,
            IngestSummary {
                added: 2,
                updated: 0
            }
        );
        let metformin = registry.resolve("Metformin").unwrap();
        let gliclazide = registry.resolve("Gliclazide").unwrap();
        let fact = kb.lookup(gliclazide, metformin).unwrap();
        assert_eq!(fact.severity, Severity::Major);
        assert_eq!(fact.management, "monitor glucose");
        let upgraded = kb.lookup(61, 59).unwrap();
        assert_eq!(upgraded.severity, Severity::Contraindicated);
        assert_eq!(upgraded.management_hint(), Some("do not combine"));
        assert!(kb.lookup(0, 1).is_none(), "no row names this pair");
    }

    #[test]
    fn ingest_summary_counts_net_changes_not_rows() {
        let registry = registry();
        let mut kb = KnowledgeBase::new(&registry);
        // The same new pair twice in one file is one added fact (the later
        // row is an ordered correction, not an update of pre-existing
        // state), and the correction wins.
        let summary = kb
            .ingest_tsv(
                "Metformin\tGliclazide\tminor\tstudy\nGliclazide\tMetformin\tmajor\tstudy",
                &registry,
            )
            .unwrap();
        assert_eq!(
            summary,
            IngestSummary {
                added: 1,
                updated: 0
            }
        );
        assert_eq!(kb.len(), 1);
        let (metformin, gliclazide) = (
            registry.resolve("Metformin").unwrap(),
            registry.resolve("Gliclazide").unwrap(),
        );
        assert_eq!(
            kb.lookup(metformin, gliclazide).unwrap().severity,
            Severity::Major
        );
        // Re-ingesting a pair the KB already holds is an update.
        let summary = kb
            .ingest_tsv("Metformin\tGliclazide\tmoderate\tstudy", &registry)
            .unwrap();
        assert_eq!(
            summary,
            IngestSummary {
                added: 0,
                updated: 1
            }
        );
        assert_eq!(kb.len(), 1);
    }

    #[test]
    fn tsv_errors_name_the_line_and_leave_the_kb_untouched() {
        let registry = registry();
        let mut kb = KnowledgeBase::new(&registry);
        let cases: Vec<(&str, fn(&KbError) -> bool)> = vec![
            ("just-one-cell", |e| {
                matches!(e, KbError::Parse { line: 1, .. })
            }),
            ("Metformin\tUnobtainium\tmajor\tstudy", |e| {
                matches!(e, KbError::UnknownDrug { line: 1, .. })
            }),
            ("Metformin\tGliclazide\tcatastrophic\tstudy", |e| {
                matches!(e, KbError::Parse { line: 1, .. })
            }),
            ("Metformin\tGliclazide\tmajor\tvibes", |e| {
                matches!(e, KbError::Parse { line: 1, .. })
            }),
            ("Metformin\tMetformin\tmajor\tstudy", |e| {
                matches!(e, KbError::SelfInteraction { line: 1, .. })
            }),
            (
                // Line numbering counts skipped lines too.
                "# header\nMetformin\tGliclazide\tmajor\tstudy\tok\tok\tEXTRA",
                |e| matches!(e, KbError::Parse { line: 2, .. }),
            ),
            (
                // A good row followed by a bad one must not half-apply.
                "Metformin\tGliclazide\tmajor\tstudy\nbroken row",
                |e| matches!(e, KbError::Parse { line: 2, .. }),
            ),
        ];
        for (tsv, matches_expected) in cases {
            let error = kb.ingest_tsv(tsv, &registry).unwrap_err();
            assert!(matches_expected(&error), "tsv {tsv:?} gave {error:?}");
            assert!(kb.is_empty(), "failed ingest must not mutate: {tsv:?}");
            assert_eq!(kb.version(), 0);
        }
    }

    #[test]
    fn ddi_graph_seeding_grades_by_sign() {
        let registry = registry();
        let mut rng = StdRng::seed_from_u64(7);
        let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
        let kb = KnowledgeBase::from_ddi_graph(&ddi, &registry).unwrap();
        assert_eq!(kb.version(), 1);
        assert_eq!(
            kb.len(),
            ddi.synergistic_count() + ddi.antagonistic_count(),
            "every signed edge gets a fact; explicit no-interaction edges do not"
        );
        for (u, v, interaction) in ddi.interactions() {
            if interaction == Interaction::None {
                assert!(kb.lookup(u, v).is_none());
            } else {
                let fact = kb.lookup(u, v).unwrap();
                assert_eq!(fact.severity, Severity::default_for(interaction));
                assert_eq!(fact.evidence, EvidenceLevel::Theoretical);
            }
        }
        let small = SignedGraph::new(3);
        assert!(matches!(
            KnowledgeBase::from_ddi_graph(&small, &registry),
            Err(KbError::RegistryMismatch { .. })
        ));
    }

    #[test]
    fn diff_reports_added_removed_changed_in_pair_order() {
        let registry = registry();
        let mut old = KnowledgeBase::new(&registry);
        old.upsert(1, 2, fact(Severity::Minor)).unwrap();
        old.upsert(3, 4, fact(Severity::Major)).unwrap();
        let mut new = old.clone();
        new.upsert(0, 5, fact(Severity::Contraindicated)).unwrap(); // added
        new.upsert(1, 2, fact(Severity::Moderate)).unwrap(); // changed
        let mut dropped = KnowledgeBase::new(&registry);
        dropped
            .upsert(0, 5, fact(Severity::Contraindicated))
            .unwrap();
        dropped.upsert(1, 2, fact(Severity::Moderate)).unwrap();
        // `new` vs `old`: one added, one changed.
        let diff = old.diff(&new).unwrap();
        assert_eq!(diff.from_version, old.version());
        assert_eq!(diff.to_version, new.version());
        assert_eq!(diff.counts(), (1, 0, 1));
        assert!(matches!(
            diff.changes[0],
            KbChange::Added { pair: (0, 5), .. }
        ));
        assert!(matches!(
            diff.changes[1],
            KbChange::Changed { pair: (1, 2), .. }
        ));
        // `dropped` vs `new`: (3, 4) was removed.
        let diff = new.diff(&dropped).unwrap();
        assert_eq!(diff.counts(), (0, 1, 0));
        assert!(matches!(
            diff.changes[0],
            KbChange::Removed { pair: (3, 4), .. }
        ));
        // Identical sides diff empty.
        assert!(old.diff(&old.clone()).unwrap().is_empty());
        assert_eq!(format!("{}", old.diff(&new).unwrap()), {
            format!(
                "kb v{} -> v{}: 1 added, 0 removed, 1 changed",
                old.version(),
                new.version()
            )
        });
    }

    #[test]
    fn container_round_trips_and_rejects_damage() {
        let registry = registry();
        let mut kb = KnowledgeBase::new(&registry);
        kb.ingest_tsv(
            "Metformin\tGliclazide\tmajor\tstudy\tадитивний ефект\tmonitor 血糖\n\
             Gabapentin\tIsosorbide Mononitrate\tcontraindicated\testablished\t\tstop one\n",
            &registry,
        )
        .unwrap();
        let bytes = kb.to_container_bytes();
        let back = KnowledgeBase::from_container_bytes(&bytes).unwrap();
        assert_eq!(back, kb, "containers round-trip exactly");

        // Truncation anywhere is a typed error.
        for cut in [0, 3, FRAME_HEADER_LEN - 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(KnowledgeBase::from_container_bytes(&bytes[..cut]).is_err());
        }
        // A flipped payload bit is caught by the CRC.
        let mut flipped = bytes.clone();
        flipped[FRAME_HEADER_LEN + 2] ^= 0x40;
        assert!(matches!(
            KnowledgeBase::from_container_bytes(&flipped),
            Err(KbError::Serde(SerdeError::ChecksumMismatch { .. }))
        ));
        // Foreign magic (a DSSD model file is not a KB).
        let mut foreign = bytes.clone();
        foreign[..4].copy_from_slice(b"DSSD");
        assert!(matches!(
            KnowledgeBase::from_container_bytes(&foreign),
            Err(KbError::Serde(SerdeError::BadMagic {
                expected: KB_MAGIC,
                found: [b'D', b'S', b'S', b'D'],
            }))
        ));
        // Future format versions are refused.
        let mut future = bytes.clone();
        future[4..6].copy_from_slice(&(KB_FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            KnowledgeBase::from_container_bytes(&future),
            Err(KbError::Serde(SerdeError::UnsupportedVersion { .. }))
        ));
        // An absurd declared length is rejected before allocation.
        let mut oversized = bytes.clone();
        oversized[6..14].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(KnowledgeBase::from_container_bytes(&oversized).is_err());
    }

    #[test]
    fn save_load_round_trips_through_files() {
        let registry = registry();
        let mut kb = KnowledgeBase::new(&registry);
        kb.upsert(10, 5, fact(Severity::Moderate)).unwrap();
        let dir = std::env::temp_dir().join("dssddi-kb-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("kb-{}.dskb", std::process::id()));
        kb.save(&path).unwrap();
        let back = KnowledgeBase::load(&path).unwrap();
        assert_eq!(back, kb);
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            KnowledgeBase::load(dir.join("missing.dskb")),
            Err(KbError::Io { .. })
        ));
    }

    #[test]
    fn info_counts_facts_per_severity() {
        let registry = registry();
        let mut kb = KnowledgeBase::new(&registry);
        kb.upsert(0, 1, fact(Severity::Minor)).unwrap();
        kb.upsert(0, 2, fact(Severity::Major)).unwrap();
        kb.upsert(0, 3, fact(Severity::Major)).unwrap();
        kb.upsert(0, 4, fact(Severity::Contraindicated)).unwrap();
        let info = kb.info();
        assert_eq!(info.version, 4);
        assert_eq!(info.n_facts, 4);
        assert_eq!(info.facts_by_severity, [1, 0, 2, 1]);
        assert_eq!(info.registry_digest, registry.digest());
        assert_eq!(info.n_drugs, registry.len());
    }
}
