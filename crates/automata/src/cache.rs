//! Per-schema-pair cache for the automata decision procedures.
//!
//! Mirrors `xmlmap_patterns::SatCache` and `xmlmap_core`'s `ChaseCache`:
//! one [`AutomataCache`] per ordered DTD pair `(D1, D2)` so repeated
//! inclusion/subschema checks against the same schemas reuse the compiled
//! automata — dense label ids, per-rule horizontals already determinized
//! into flat DFA tables — instead of rebuilding them per call, and return
//! memoized verdicts on repeat queries.
//!
//! The cache is the one place a schema pair becomes automata: both hedge
//! automata are read off the DTDs' compiled content models
//! ([`HedgeAutomaton::from_dtd`]), compiled over the pair's joint alphabet,
//! and only the compiled pair is kept.

use crate::compiled::{self, CompiledAutomaton};
use crate::hedge::HedgeAutomaton;
use crate::inclusion::{InclusionBudgetExceeded, SubschemaViolation};
use std::sync::Mutex;
use xmlmap_codec::{checksum, CodecError, Decoder, Encoder};
use xmlmap_dtd::Dtd;
use xmlmap_trees::{Name, NodeId, Tree, Value};

/// Compiled automata for one ordered schema pair, plus memoized verdicts.
///
/// Budget overruns are *not* cached — a retry with a larger budget
/// recomputes, exactly as in `SatCache`. Successful verdicts are budget-
/// independent (the fixpoint either completed or it didn't), so they are
/// returned from the memo regardless of the budget passed later.
pub struct AutomataCache {
    d1: Dtd,
    d2: Dtd,
    a: CompiledAutomaton,
    b: CompiledAutomaton,
    inclusion_memo: Mutex<Option<Option<Tree>>>,
    subschema_memo: Mutex<Option<Option<SubschemaViolation>>>,
}

/// The label universe both automata of a pair are compiled over: `d1`'s
/// alphabet, then the labels of `d2` that `d1` lacks.
fn joint_alphabet(d1: &Dtd, d2: &Dtd) -> Vec<Name> {
    d1.alphabet()
        .chain(d2.alphabet().filter(|l| !d1.contains(l)))
        .cloned()
        .collect()
}

impl AutomataCache {
    /// Compiles both DTDs into hedge automata over their joint alphabet
    /// and determinizes every horizontal language, once.
    pub fn new(d1: &Dtd, d2: &Dtd) -> AutomataCache {
        let alphabet = joint_alphabet(d1, d2);
        let a = CompiledAutomaton::new(&HedgeAutomaton::from_dtd(d1), &alphabet);
        let b = CompiledAutomaton::new(&HedgeAutomaton::from_dtd(d2), &alphabet);
        AutomataCache::with_compiled(d1.clone(), d2.clone(), a, b)
    }

    fn with_compiled(d1: Dtd, d2: Dtd, a: CompiledAutomaton, b: CompiledAutomaton) -> Self {
        AutomataCache {
            d1,
            d2,
            a,
            b,
            inclusion_memo: Mutex::new(None),
            subschema_memo: Mutex::new(None),
        }
    }

    /// The first schema of the pair.
    pub fn d1(&self) -> &Dtd {
        &self.d1
    }

    /// The second schema of the pair.
    pub fn d2(&self) -> &Dtd {
        &self.d2
    }

    /// `L(D1) ⊆ L(D2)` over label structures: `None` when included, or a
    /// counterexample tree.
    pub fn inclusion(&self, budget: usize) -> Result<Option<Tree>, InclusionBudgetExceeded> {
        if let Some(verdict) = &*self.inclusion_memo.lock().unwrap() {
            return Ok(verdict.clone());
        }
        let verdict = compiled::inclusion(&self.a, &self.b, budget)?;
        *self.inclusion_memo.lock().unwrap() = Some(verdict.clone());
        Ok(verdict)
    }

    /// Is every `D1` document also a `D2` document?
    ///
    /// Checks attribute-list equality on `D1`-reachable labels, then
    /// label-language inclusion over the compiled pair. Returns the
    /// violation if any — the first mismatched attribute list, or a
    /// concrete counterexample document.
    ///
    /// The attribute check exists because the automata see only the label
    /// structure (see [`HedgeAutomaton::from_dtd`]): subschema checking
    /// layers the per-label attribute comparison on top of language
    /// inclusion, and fills the counterexample's attributes per `D1`.
    pub fn subschema(
        &self,
        budget: usize,
    ) -> Result<Option<SubschemaViolation>, InclusionBudgetExceeded> {
        if let Some(verdict) = &*self.subschema_memo.lock().unwrap() {
            return Ok(verdict.clone());
        }
        let verdict = self.subschema_uncached(budget)?;
        *self.subschema_memo.lock().unwrap() = Some(verdict.clone());
        Ok(verdict)
    }

    fn subschema_uncached(
        &self,
        budget: usize,
    ) -> Result<Option<SubschemaViolation>, InclusionBudgetExceeded> {
        let (d1, d2) = (&self.d1, &self.d2);
        for label in d1.reachable() {
            if d1.attrs(&label) != d2.attrs(&label) {
                return Ok(Some(SubschemaViolation::AttributeMismatch {
                    left: d1.attrs(&label).to_vec(),
                    right: d2.attrs(&label).to_vec(),
                    label,
                }));
            }
        }
        let counterexample =
            compiled::inclusion(&self.a, &self.b, budget).map_err(|e| InclusionBudgetExceeded {
                operation: "subschema check".into(),
                ..e
            })?;
        let Some(mut t) = counterexample else {
            return Ok(None);
        };
        // Fill the counterexample's attributes per d1 so it genuinely
        // conforms to d1.
        let nodes: Vec<NodeId> = t.nodes().collect();
        for n in nodes {
            let attrs: Vec<(Name, Value)> = d1
                .attrs(t.label(n))
                .iter()
                .map(|a| (a.clone(), Value::str("d")))
                .collect();
            t.set_attrs(n, attrs);
        }
        debug_assert!(d1.conforms(&t));
        debug_assert!(!d2.conforms(&t));
        Ok(Some(SubschemaViolation::Document(t)))
    }

    /// Serializes the pair for an on-disk artifact store: the two schema
    /// texts, the two compiled automata, and a checksum over both.
    ///
    /// Memoized verdicts are deliberately *not* written — they are cheap
    /// to re-derive from the compiled tables and would bloat every
    /// artifact with witness trees. The checksum ties the tables to the
    /// texts: a payload with any byte changed no longer decodes, so a
    /// decoded cache always answers for the schemas it names.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.str(&self.d1.to_string());
        e.str(&self.d2.to_string());
        self.a.encode(&mut e);
        self.b.encode(&mut e);
        let mut bytes = e.finish();
        let sum = checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// Inverse of [`AutomataCache::to_bytes`]: verifies the checksum,
    /// reparses the (small) schema texts, rebuilds the joint alphabet from
    /// them, decodes the compiled tables against it, and starts with empty
    /// verdict memos. Subset construction is never re-run.
    pub fn from_bytes(bytes: &[u8]) -> Result<AutomataCache, CodecError> {
        let split = bytes.len().checked_sub(8).ok_or(CodecError::Truncated)?;
        let (body, sum) = bytes.split_at(split);
        if checksum(body) != u64::from_le_bytes(sum.try_into().unwrap()) {
            return Err(CodecError::Malformed("AutomataCache checksum"));
        }
        let mut d = Decoder::new(body);
        let t1 = d.str()?.to_owned();
        let t2 = d.str()?.to_owned();
        let d1 = xmlmap_dtd::parse(&t1).map_err(|_| CodecError::Malformed("stored DTD text"))?;
        let d2 = xmlmap_dtd::parse(&t2).map_err(|_| CodecError::Malformed("stored DTD text"))?;
        let alphabet = joint_alphabet(&d1, &d2);
        let a = CompiledAutomaton::decode(&mut d, &alphabet)?;
        let b = CompiledAutomaton::decode(&mut d, &alphabet)?;
        d.expect_end()?;
        Ok(AutomataCache::with_compiled(d1, d2, a, b))
    }

    /// Approximate heap footprint in bytes: schemas, both compiled
    /// automata, and whatever the verdict memos currently hold.
    pub fn approx_bytes(&self) -> u64 {
        let inc = match &*self.inclusion_memo.lock().unwrap() {
            Some(Some(t)) => t.approx_bytes(),
            _ => 0,
        };
        let sub = match &*self.subschema_memo.lock().unwrap() {
            Some(Some(SubschemaViolation::Document(t))) => t.approx_bytes(),
            Some(Some(SubschemaViolation::AttributeMismatch { label, .. })) => {
                label.as_str().len() as u64 + 64
            }
            _ => 0,
        };
        self.d1.to_string().len() as u64
            + self.d2.to_string().len() as u64
            + self.a.approx_bytes()
            + self.b.approx_bytes()
            + inc
            + sub
    }
}
