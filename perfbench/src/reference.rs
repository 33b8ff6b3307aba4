//! The output check: gateway answers against the in-process
//! `DecisionService` answer to the same request, decoded from the same
//! fixture containers.

use dssddi_core::{DecisionService, KnowledgeBase};
use dssddi_serving::{KbInfo, ModelInfo, ModelKey};

use crate::fixture::{Fixtures, FITTED_KEY};
use crate::openloop::Answer;
use crate::traffic::Frame;

/// In-process twins of the gateway's shards.
pub struct Reference {
    fitted: DecisionService,
    support: DecisionService,
    kb: KnowledgeBase,
}

impl Reference {
    pub fn new(fixtures: &Fixtures) -> Result<Self, String> {
        Ok(Self {
            fitted: fixtures.fitted_service()?,
            support: fixtures.support_service()?,
            kb: fixtures.knowledge_base()?,
        })
    }

    /// The fitted service (it fixes the traffic's feature width and formulary).
    pub fn fitted(&self) -> &DecisionService {
        &self.fitted
    }

    /// Mismatched requests in `answer` (0 when the gateway answered exactly
    /// what the in-process service answers), with a description of the first.
    /// Ranked ids and scores, community nodes and edges, SS, and critique
    /// findings with their grades are compared through the response types'
    /// equality, scores bit for bit.
    pub fn mismatches(
        &self,
        shard: &ModelKey,
        frame: &Frame,
        answer: &Answer,
    ) -> Result<(u64, Option<String>), String> {
        let service = if shard.as_str() == FITTED_KEY {
            &self.fitted
        } else {
            &self.support
        };
        let kb = Some(&self.kb);
        let differs = |what: &str| (1, Some(format!("{} answer differs: {what}", frame.op())));
        Ok(match (frame, answer) {
            (Frame::Suggest(request), Answer::Suggest(got)) => {
                let want = service
                    .suggest_with_kb(request, kb)
                    .map_err(|e| e.to_string())?;
                if &want == got {
                    (0, None)
                } else {
                    differs(&format!("{got:?} != {want:?}"))
                }
            }
            (Frame::SuggestBatch(requests), Answer::SuggestBatch(got)) => {
                let want = service
                    .suggest_batch_with_kb(requests, kb)
                    .map_err(|e| e.to_string())?;
                let wrong = want.len().abs_diff(got.len())
                    + want.iter().zip(got).filter(|(w, g)| w != g).count();
                if wrong == 0 {
                    (0, None)
                } else {
                    (wrong as u64, differs("batch responses").1)
                }
            }
            (Frame::Check(request), Answer::Check(got)) => {
                let want = service
                    .check_prescription_with_kb(request, kb)
                    .map_err(|e| e.to_string())?;
                if &want == got {
                    (0, None)
                } else {
                    differs(&format!("{got:?} != {want:?}"))
                }
            }
            (Frame::ReloadModel, Answer::ModelReloaded(got)) => {
                let want = ModelInfo {
                    key: shard.clone(),
                    fitted: service.is_fitted(),
                    n_drugs: service.registry().len(),
                    n_features: service.n_features(),
                    registry_digest: service.registry().digest(),
                    backbone: service.config().ddi.backbone.name().to_string(),
                    kb_version: self.kb.version(),
                };
                if &want == got {
                    (0, None)
                } else {
                    differs(&format!("{got:?} != {want:?}"))
                }
            }
            (Frame::ReloadKb, Answer::KbReloaded(got)) => {
                let want: KbInfo = self.kb.info();
                if &want == got {
                    (0, None)
                } else {
                    differs(&format!("{got:?} != {want:?}"))
                }
            }
            _ => differs("answer of another message type"),
        })
    }
}
