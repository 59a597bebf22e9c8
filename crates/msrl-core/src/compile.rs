//! The evaluation schedule of the reference evaluator ([`crate::interp`]).
//!
//! In the original system each fragment is an operator graph the DL
//! engine compiles once and replays every iteration (§5.2). No run here
//! does that — fragment bodies are hand-written Rust (DESIGN §3.9) — so
//! "compiling" one evaluation request is only validating it and ordering
//! it: tracing appends nodes in topological order, so ascending id order
//! is a valid schedule.

use crate::graph::{DataflowGraph, NodeId};
use crate::{FdgError, Result};

/// Validates one evaluation request and returns its schedule: the ids
/// of `ids` that lie in `graph` and are not in `preset_ids` (the caller
/// supplies those values), ascending and deduplicated.
///
/// `_outputs` and `_fusion` are unread. They are kept only until the
/// frozen `benchmark/` crate, which still calls `compile` with five
/// arguments, is re-pointed.
///
/// # Errors
///
/// Returns [`FdgError::UnknownNode`] when `ids` names a node that is
/// neither in the graph nor preset.
pub fn compile(
    graph: &DataflowGraph,
    ids: &[NodeId],
    preset_ids: &[NodeId],
    _outputs: Option<&[NodeId]>,
    _fusion: bool,
) -> Result<Vec<NodeId>> {
    let mut schedule = ids.to_vec();
    schedule.sort_unstable();
    schedule.dedup();
    // Out-of-graph ids are legal only as presets.
    if let Some(&id) = schedule.iter().find(|&&id| id >= graph.len() && !preset_ids.contains(&id)) {
        return Err(FdgError::UnknownNode { id });
    }
    schedule.retain(|&id| id < graph.len() && !preset_ids.contains(&id));
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{trace_mlp, TraceCtx};

    #[test]
    fn fusion_off_replays_the_unoptimized_schedule() {
        let ctx = TraceCtx::new();
        let x = ctx.input("x", &[4, 3]);
        let _out = trace_mlp(&ctx, "net", &x, &[3, 8, 2]);
        let graph = ctx.finish();
        let n = graph.len();
        // Unsorted, duplicated, one id preset: the schedule is every other
        // id ascending, whatever the fusion flag says.
        let ids: Vec<NodeId> = (0..n).rev().chain([2, 2]).collect();
        let expect: Vec<NodeId> = (0..n).filter(|&id| id != x.id()).collect();
        for fusion in [false, true] {
            assert_eq!(compile(&graph, &ids, &[x.id()], None, fusion).unwrap(), expect);
        }
    }

    #[test]
    fn out_of_graph_ids_require_presets() {
        let ctx = TraceCtx::new();
        let x = ctx.input("x", &[4]);
        let _y = x.relu();
        let graph = ctx.finish();
        let bogus = graph.len() + 5;
        let err = compile(&graph, &[0, 1, bogus], &[], None, true).unwrap_err();
        assert!(matches!(err, FdgError::UnknownNode { id } if id == bogus));
        assert!(compile(&graph, &[0, 1, bogus], &[bogus], None, true).is_ok());
    }
}
