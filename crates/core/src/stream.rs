//! The streaming front door: conformance and (optionally) pattern
//! membership over one SAX pass, in O(depth) memory (DESIGN.md §8.7).
//!
//! The per-crate cursors — [`StreamValidator`] in `xmlmap-dtd` and
//! [`StreamMatcher`] in `xmlmap-patterns` — each consume open/close
//! events independently. This module drives both off a *single*
//! [`SaxReader`] pass, so `xmlmap stream <schema> --pattern π <doc>`
//! reads the document exactly once, and bridges the one semantic gap
//! between them: the matcher pairs attribute values with pattern tuples
//! *positionally* (like the arena evaluator over a normalised tree), so
//! the driver hands the matcher each element's attributes in the DTD's
//! canonical order ([`CanonicalAttrs`]), which the validator finds while
//! checking the attribute set — the streaming analogue of the arena
//! pipeline's `normalize_attrs`. Start tags stay borrowed from the reader: the
//! validator resolves their name slots to DTD ids, and the cursors read
//! a value only where a pattern node binds it.
//!
//! The compiled inputs ([`DtdIndex`], [`StreamPattern`]) are per-schema
//! and per-pattern artifacts; [`crate::EngineContext`] caches them and
//! exposes this driver as
//! [`stream_document`](crate::EngineContext::stream_document).

use crate::chase::compiled::canonical_solution_from_firings;
use crate::chase::{ChaseCache, ChaseError};
use crate::stds::Mapping;
use std::fmt;
use std::io::Read;
use std::sync::Arc;
use xmlmap_dtd::{DtdIndex, StreamStats, StreamValidator};
use xmlmap_patterns::{
    CanonicalAttrs, LabelMasks, StreamEnumerator, StreamMatcher, StreamPattern, UnstreamablePattern,
};
use xmlmap_trees::{BorrowedEvent, SaxReader, Tree, Value, XmlError};

/// What one streaming pass over a document established.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    /// `None` when the document conforms to the schema; otherwise the
    /// first violation in document order, rendered with its byte offset
    /// and line/column (the pass stops there — early reject).
    pub violation: Option<String>,
    /// The pattern verdict: `Some` when a plan was supplied *and* the
    /// pass ran to completion, `None` otherwise (no pattern, or the
    /// validator rejected first).
    pub matched: Option<bool>,
    /// Validator counters: elements seen, peak open-element depth, and
    /// the high-water mark of live validator state in bytes.
    pub stats: StreamStats,
    /// High-water mark of live matcher state in bytes (0 without a
    /// pattern).
    pub pattern_state_bytes: u64,
}

/// Why a streaming job could not produce a verdict at all (distinct from
/// a well-formed document that simply fails to conform or match).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamJobError {
    /// The input is not well-formed XML.
    Parse(XmlError),
    /// The pattern lies outside the streamable downward fragment; the
    /// diagnostic names the offending feature and points at the arena
    /// evaluator.
    Unstreamable(UnstreamablePattern),
}

impl fmt::Display for StreamJobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamJobError::Parse(e) => write!(f, "{e}"),
            StreamJobError::Unstreamable(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamJobError {}

impl From<XmlError> for StreamJobError {
    fn from(e: XmlError) -> StreamJobError {
        StreamJobError::Parse(e)
    }
}

impl From<UnstreamablePattern> for StreamJobError {
    fn from(e: UnstreamablePattern) -> StreamJobError {
        StreamJobError::Unstreamable(e)
    }
}

/// Streams `src` once, validating against `idx` and (when `plan` is
/// given) evaluating pattern membership, in O(depth) memory.
///
/// A conformance violation stops the pass immediately and is reported in
/// [`StreamOutcome::violation`]; only a parse error is a hard `Err`.
pub(crate) fn stream_document<R: Read>(
    idx: &Arc<DtdIndex>,
    plan: Option<&StreamPattern>,
    src: R,
) -> Result<StreamOutcome, XmlError> {
    let mut reader = SaxReader::new(src);
    let mut validator = StreamValidator::new(Arc::clone(idx));
    let mut matcher = plan.map(|p| (StreamMatcher::new(p), p.label_masks(idx.labels())));
    let rejected = |reader: &SaxReader<R>, validator: &StreamValidator, v: &dyn fmt::Display| {
        let (line, col) = reader.position();
        StreamOutcome {
            violation: Some(format!(
                "invalid at byte {} (line {line}, column {col}): {v}",
                reader.offset()
            )),
            matched: None,
            stats: validator.stats(),
            pattern_state_bytes: 0,
        }
    };
    while let Some(event) = reader.next_event()? {
        match event {
            BorrowedEvent::Open(tag) => {
                let lid = match validator.open_tag(&tag) {
                    Ok(lid) => lid,
                    Err(v) => return Ok(rejected(&reader, &validator, &v)),
                };
                if let Some((m, masks)) = &mut matcher {
                    let attrs = CanonicalAttrs::new(&tag, validator.canonical_order());
                    m.open(masks.get(lid), &attrs);
                }
            }
            BorrowedEvent::Close(_) => {
                if let Err(v) = validator.close() {
                    return Ok(rejected(&reader, &validator, &v));
                }
                if let Some((m, _)) = &mut matcher {
                    m.close();
                }
            }
        }
    }
    let matcher = matcher.map(|(m, _)| m);
    let pattern_state_bytes = matcher.as_ref().map_or(0, StreamMatcher::peak_state_bytes);
    Ok(StreamOutcome {
        violation: None,
        matched: matcher.map(|m| m.finish()),
        stats: validator.finish(),
        pattern_state_bytes,
    })
}

impl StreamOutcome {
    /// Peak open-element depth of the pass (validator counter).
    pub fn peak_depth(&self) -> usize {
        self.stats.peak_depth
    }

    /// High-water mark of *all* live stream state in bytes: validator
    /// cursor plus pattern (matcher or enumerator) state.
    pub fn peak_live_bytes(&self) -> u64 {
        self.stats.peak_state_bytes + self.pattern_state_bytes
    }
}

/// One std of a mapping that the streaming chase cannot run: its source
/// pattern lies outside the streamable downward fragment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnstreamableStd {
    /// Index of the std in mapping order.
    pub index: usize,
    /// Display text of the offending source pattern.
    pub source: String,
    /// Which feature puts it outside the fragment.
    pub cause: UnstreamablePattern,
}

impl fmt::Display for UnstreamableStd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "std {} source pattern `{}` is not streamable: {}",
            self.index, self.source, self.cause
        )
    }
}

impl std::error::Error for UnstreamableStd {}

/// Why a streaming chase could not produce a verdict at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamChaseError {
    /// The input is not well-formed XML.
    Parse(XmlError),
    /// A source pattern lies outside the streamable fragment; the
    /// tree-path chase (`xmlmap chase`) still handles it.
    Unstreamable(UnstreamableStd),
}

impl fmt::Display for StreamChaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamChaseError::Parse(e) => write!(f, "{e}"),
            StreamChaseError::Unstreamable(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamChaseError {}

impl From<XmlError> for StreamChaseError {
    fn from(e: XmlError) -> StreamChaseError {
        StreamChaseError::Parse(e)
    }
}

/// The artifact for the streaming chase of one mapping: the shared chase
/// tables ([`ChaseCache`]) plus a shared [`StreamPattern`] per std source.
///
/// Both are compiled from the same source patterns, so interned variable
/// ids — and hence enumerator tuple positions — line up with the chase
/// plans. A mapping whose sources stray outside the streamable fragment
/// still gets a plan; the failure is carried in it and reported by
/// [`EngineContext::chase_stream`](crate::EngineContext::chase_stream)
/// before any input is read.
pub struct StreamChasePlan {
    cache: Arc<ChaseCache>,
    plans: Result<Vec<Arc<StreamPattern>>, UnstreamableStd>,
}

impl StreamChasePlan {
    /// Assembles `m`'s artifact from its chase tables and its std sources'
    /// stream plans, in mapping order (the first failure is kept); a
    /// mapping outside the chase fragment takes no stream plans.
    pub fn new(
        m: &Mapping,
        cache: Arc<ChaseCache>,
        plans: impl IntoIterator<Item = Result<Arc<StreamPattern>, UnstreamablePattern>>,
    ) -> StreamChasePlan {
        let plans = m.stds[..cache.std_count()]
            .iter()
            .zip(plans)
            .enumerate()
            .map(|(i, (s, plan))| {
                plan.map_err(|cause| UnstreamableStd {
                    index: i,
                    source: s.source.to_string(),
                    cause,
                })
            })
            .collect();
        StreamChasePlan { cache, plans }
    }

    /// Approximate heap footprint in bytes of what the plan owns.
    pub fn approx_bytes(&self) -> u64 {
        64 + match &self.plans {
            Ok(ps) => ps.len() as u64 * 8,
            Err(e) => e.source.len() as u64 + 64,
        }
    }

    /// `Some` when the mapping cannot be chased in streaming mode (first
    /// offending std in mapping order).
    pub fn unstreamable(&self) -> Option<&UnstreamableStd> {
        self.plans.as_ref().err()
    }
}

/// What one streaming chase pass established.
#[derive(Clone, Debug)]
pub struct StreamChaseOutcome {
    /// `None` when the source conforms to the source DTD; otherwise the
    /// first violation in document order (the pass stops there and the
    /// chase verdict is withheld).
    pub violation: Option<String>,
    /// The chase verdict: `Some` when the pass ran to completion —
    /// either the canonical target tree or why no solution exists —
    /// `None` when the validator rejected first.
    pub solution: Option<Result<Tree, ChaseError>>,
    /// Validator counters: elements seen, peak open-element depth, and
    /// the high-water mark of live validator state in bytes.
    pub stats: StreamStats,
    /// Total firings enumerated across all stds (after source-condition
    /// filtering and canonical dedup — the firings the chase consumed).
    pub firings: u64,
    /// High-water mark of simultaneously-live valuations across all
    /// per-std enumerators.
    pub peak_live_valuations: u64,
    /// High-water mark of live enumerator state in bytes, summed over
    /// the per-std enumerators.
    pub pattern_state_bytes: u64,
}

impl StreamChaseOutcome {
    /// Peak open-element depth of the pass (validator counter).
    pub fn peak_depth(&self) -> usize {
        self.stats.peak_depth
    }

    /// High-water mark of *all* live stream state in bytes: validator
    /// cursor plus every enumerator's state.
    pub fn peak_live_bytes(&self) -> u64 {
        self.stats.peak_state_bytes + self.pattern_state_bytes
    }
}

/// Streams `src` once, validating against `idx` (the mapping's source
/// DTD) while one [`StreamEnumerator`] per std collects firing
/// valuations, then chases the firings into the canonical target tree —
/// the same tree `canonical_solution` builds from a materialised source
/// (byte-identical, in fact: the enumerators replay the arena kernel's
/// canonical firing order, so even the fresh-null numbering coincides).
///
/// Peak memory is O(depth + live matches + firings + output): the source
/// tree is never materialised. A conformance violation stops the pass
/// and withholds the verdict ([`StreamChaseOutcome::violation`]); a
/// non-streamable source pattern is rejected before any input is read.
pub(crate) fn chase_stream<R: Read>(
    idx: &Arc<DtdIndex>,
    plan: &StreamChasePlan,
    src: R,
) -> Result<StreamChaseOutcome, StreamChaseError> {
    let plans = match &plan.plans {
        Ok(ps) => ps,
        Err(e) => return Err(StreamChaseError::Unstreamable(e.clone())),
    };
    let masks: Vec<LabelMasks> = plans.iter().map(|p| p.label_masks(idx.labels())).collect();
    let mut reader = SaxReader::new(src);
    let mut validator = StreamValidator::new(Arc::clone(idx));
    let mut enums: Vec<StreamEnumerator<'_>> =
        plans.iter().map(|p| StreamEnumerator::new(p)).collect();
    while let Some(event) = reader.next_event()? {
        let step = match event {
            BorrowedEvent::Open(tag) => validator.open_tag(&tag).map(|lid| {
                let attrs = CanonicalAttrs::new(&tag, validator.canonical_order());
                for (en, masks) in enums.iter_mut().zip(&masks) {
                    en.open(masks.get(lid), &attrs);
                }
            }),
            BorrowedEvent::Close(_) => validator.close().map(|()| {
                for en in &mut enums {
                    en.close();
                }
            }),
        };
        if let Err(v) = step {
            let (line, col) = reader.position();
            return Ok(StreamChaseOutcome {
                violation: Some(format!(
                    "invalid at byte {} (line {line}, column {col}): {v}",
                    reader.offset()
                )),
                solution: None,
                stats: validator.stats(),
                firings: 0,
                peak_live_valuations: 0,
                pattern_state_bytes: 0,
            });
        }
    }
    let stats = validator.finish();
    let peak_live_valuations = enums
        .iter()
        .map(StreamEnumerator::peak_live_valuations)
        .sum();
    let pattern_state_bytes = enums.iter().map(StreamEnumerator::peak_state_bytes).sum();
    if let Some(e) = plan.cache.fragment_error() {
        return Ok(StreamChaseOutcome {
            violation: None,
            solution: Some(Err(e.clone())),
            stats,
            firings: 0,
            peak_live_valuations,
            pattern_state_bytes,
        });
    }
    // Canonicalise each std's firing multiset up front so the firing
    // counter reports what the chase actually consumes; the kernel's
    // own canonicalisation pass is idempotent over this.
    let per_std: Vec<Vec<Box<[Value]>>> = enums
        .into_iter()
        .enumerate()
        .map(|(i, en)| plan.cache.canonical_firings(i, en.finish()))
        .collect();
    let firings = per_std.iter().map(|f| f.len() as u64).sum();
    let solution = canonical_solution_from_firings(&plan.cache, per_std);
    Ok(StreamChaseOutcome {
        violation: None,
        solution: Some(solution),
        stats,
        firings,
        peak_live_valuations,
        pattern_state_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlmap_patterns::parse as parse_pattern;

    fn idx() -> Arc<DtdIndex> {
        Arc::new(DtdIndex::new(
            &xmlmap_dtd::parse(
                "root r
                 r -> a*, b?
                 a @ x, y",
            )
            .unwrap(),
        ))
    }

    fn plan(text: &str) -> StreamPattern {
        StreamPattern::compile(&parse_pattern(text).unwrap()).unwrap()
    }

    #[test]
    fn one_pass_validates_and_matches() {
        let idx = idx();
        let doc = r#"<r><a x="1" y="1"/><a x="2" y="3"/><b/></r>"#;
        let p = plan("r/a(u, v)");
        let out = stream_document(&idx, Some(&p), doc.as_bytes()).unwrap();
        assert_eq!(out.violation, None);
        assert_eq!(out.matched, Some(true));
        assert_eq!(out.stats.elements, 4);
        assert!(out.pattern_state_bytes > 0);

        let repeated = plan("r/a(u, u)");
        let out = stream_document(&idx, Some(&repeated), doc.as_bytes()).unwrap();
        assert_eq!(out.matched, Some(true)); // the first <a> has x == y

        let no = plan("r/b(u)");
        let out = stream_document(&idx, Some(&no), doc.as_bytes()).unwrap();
        assert_eq!(out.matched, Some(false));
    }

    #[test]
    fn outcome_accessors_report_exact_peaks() {
        // A fixed 3-level document under a 3-level DTD: the peak open
        // depth is exactly 3 (r > m > a), and peak_live_bytes is exactly
        // the validator high-water mark plus the pattern share.
        let idx = Arc::new(DtdIndex::new(
            &xmlmap_dtd::parse("root r\nr -> m*\nm -> a*\na @ x").unwrap(),
        ));
        let doc = r#"<r><m><a x="1"/><a x="2"/></m><m/></r>"#;
        let out = stream_document(&idx, None, doc.as_bytes()).unwrap();
        assert_eq!(out.violation, None);
        assert_eq!(out.peak_depth(), 3);
        assert_eq!(out.pattern_state_bytes, 0, "no pattern, no pattern state");
        assert_eq!(
            out.peak_live_bytes(),
            out.stats.peak_state_bytes,
            "without a pattern the live peak is the validator's alone"
        );

        let p = plan("r/m/a(u)");
        let with_pattern = stream_document(&idx, Some(&p), doc.as_bytes()).unwrap();
        assert_eq!(with_pattern.peak_depth(), 3);
        assert!(with_pattern.pattern_state_bytes > 0);
        assert_eq!(
            with_pattern.peak_live_bytes(),
            with_pattern.stats.peak_state_bytes + with_pattern.pattern_state_bytes
        );

        // The chase outcome exposes the same accessors: same document,
        // one std mapping each `a` to a `b` — exactly 2 firings.
        let m = crate::stds::Mapping::parse(
            "[source]\nroot r\nr -> m*\nm -> a*\na @ x\n\
             [target]\nroot r\nr -> b*\nb @ w\n\
             [stds]\nr/m/a(x) --> r/b(x)\n",
        )
        .unwrap();
        let chase_plan = fresh_plan(&m);
        assert!(chase_plan.unstreamable().is_none());
        let chased = chase_stream(&idx, &chase_plan, doc.as_bytes()).unwrap();
        assert_eq!(chased.violation, None);
        assert_eq!(chased.peak_depth(), 3);
        assert_eq!(chased.firings, 2);
        assert_eq!(
            chased.peak_live_bytes(),
            chased.stats.peak_state_bytes + chased.pattern_state_bytes
        );
        assert!(chased.peak_live_bytes() > chased.stats.peak_state_bytes);
    }

    #[test]
    fn attribute_order_is_canonicalised_for_the_matcher() {
        let idx = idx();
        // Document order y-then-x; canonical (DTD) order is x-then-y.
        // The within-tuple repeat u,u must bind both positions to the
        // canonical pair (x, y) — equal here only under x == y.
        let eq = r#"<r><a y="7" x="7"/></r>"#;
        let ne = r#"<r><a y="7" x="8"/></r>"#;
        let p = plan("r/a(u, u)");
        assert_eq!(
            stream_document(&idx, Some(&p), eq.as_bytes())
                .unwrap()
                .matched,
            Some(true)
        );
        assert_eq!(
            stream_document(&idx, Some(&p), ne.as_bytes())
                .unwrap()
                .matched,
            Some(false)
        );
        // And the bound value is the canonical-position one: first tuple
        // slot is attribute x.
        let tree = xmlmap_trees::xml::parse(ne).unwrap();
        let mut normalised = tree.clone();
        idx.dtd().normalize_attrs(&mut normalised).unwrap();
        let pat = parse_pattern("r/a(u, u)").unwrap();
        assert!(!xmlmap_patterns::matches(&normalised, &pat));
    }

    #[test]
    fn early_reject_reports_position_and_skips_the_verdict() {
        let idx = idx();
        let doc = r#"<r><b/><a x="1" y="2"/></r>"#; // b before a*: dead subset at <a>
        let p = plan("r//a");
        let out = stream_document(&idx, Some(&p), doc.as_bytes()).unwrap();
        let v = out.violation.expect("must reject");
        assert!(v.starts_with("invalid at byte "), "{v}");
        assert!(v.contains("falls outside the production language"), "{v}");
        assert_eq!(out.matched, None);
    }

    #[test]
    fn parse_errors_are_hard_errors() {
        let idx = idx();
        let err = stream_document(&idx, None, r#"<r><a x="1" y="2"></r>"#.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("mismatched close tag"), "{err}");
    }

    /// `m`'s streaming-chase plan over freshly compiled parts.
    fn fresh_plan(m: &Mapping) -> StreamChasePlan {
        let plans = m
            .stds
            .iter()
            .map(|s| StreamPattern::compile(&s.source).map(Arc::new));
        StreamChasePlan::new(m, Arc::new(ChaseCache::new(m)), plans)
    }

    fn mapping() -> Mapping {
        Mapping::new(
            xmlmap_dtd::parse(
                "root r
                 r -> a*, b?
                 a @ x, y",
            )
            .unwrap(),
            xmlmap_dtd::parse(
                "root t
                 t -> p*
                 p @ u, v",
            )
            .unwrap(),
            vec![crate::stds::Std::parse("r/a(x, y) --> t/p(y, x)").unwrap()],
        )
    }

    #[test]
    fn streaming_chase_equals_the_tree_chase() {
        let m = mapping();
        let idx = Arc::new(DtdIndex::new(&m.source_dtd));
        let plan = fresh_plan(&m);
        assert!(plan.unstreamable().is_none());
        let doc = r#"<r><a x="1" y="2"/><a x="1" y="2"/><a x="3" y="4"/><b/></r>"#;
        let out = chase_stream(&idx, &plan, doc.as_bytes()).unwrap();
        assert_eq!(out.violation, None);
        assert_eq!(out.firings, 2); // duplicate firing deduplicated
        assert!(out.peak_live_valuations >= 2);
        assert!(out.peak_live_bytes() > 0);
        let streamed = out.solution.unwrap().unwrap();
        let tree = xmlmap_trees::xml::parse(doc).unwrap();
        let chased = crate::chase::canonical_solution(&m, &tree).unwrap();
        assert_eq!(streamed, chased, "must replay the kernel's firing order");
    }

    #[test]
    fn conformance_violation_withholds_the_chase_verdict() {
        let m = mapping();
        let idx = Arc::new(DtdIndex::new(&m.source_dtd));
        let plan = fresh_plan(&m);
        // b before a*: dead subset at <a>.
        let doc = r#"<r><b/><a x="1" y="2"/></r>"#;
        let out = chase_stream(&idx, &plan, doc.as_bytes()).unwrap();
        assert!(out.violation.is_some());
        assert!(out.solution.is_none());
        assert_eq!(out.firings, 0);
    }

    #[test]
    fn unstreamable_std_is_rejected_before_reading_input() {
        let mut m = mapping();
        m.stds = vec![crate::stds::Std::parse("r[a(x, y) -> a(u, v)] --> t/p(x, u)").unwrap()];
        let plan = fresh_plan(&m);
        let err = plan.unstreamable().expect("sibling order is unstreamable");
        assert_eq!(err.index, 0);
        assert_eq!(err.cause, UnstreamablePattern::SiblingOrder);
        let idx = Arc::new(DtdIndex::new(&m.source_dtd));
        let got = chase_stream(&idx, &plan, r#"<r/>"#.as_bytes()).unwrap_err();
        assert!(matches!(got, StreamChaseError::Unstreamable(_)), "{got}");
    }

    #[test]
    fn fragment_errors_surface_after_a_conforming_pass() {
        let mut m = mapping();
        // Target DTD outside the nested-relational fragment.
        m.target_dtd = xmlmap_dtd::parse(
            "root t
             t -> p, p",
        )
        .unwrap();
        let plan = fresh_plan(&m);
        assert!(plan.unstreamable().is_none());
        let idx = Arc::new(DtdIndex::new(&m.source_dtd));
        let out = chase_stream(&idx, &plan, r#"<r><a x="1" y="2"/></r>"#.as_bytes()).unwrap();
        assert_eq!(out.violation, None);
        assert!(matches!(
            out.solution,
            Some(Err(ChaseError::OutsideFragment(_)))
        ));
    }
}
