(** Algorithm 1 (§III.B): reconstruct the calling context of every LBR
    execution range from synchronized LBR + stack samples.

    LBR entries are processed in reverse execution order while maintaining
    the physical frame stack: undoing a call pops the leaf frame, undoing a
    return re-pushes the returned-from frame, and the linear range between
    two consecutive entries is attributed — with its full inline expansion —
    to the stack state current at that point. Probe hits land in the context
    trie at (caller chain ++ probe inline chain).

    Robustness mitigations, as in the paper:
    - misaligned samples (stack lagging the LBR due to sampling skid when
      PEBS is off) are detected by comparing the leaf frame's function with
      the last LBR target's function, and dropped;
    - gaps caused by tail-call elimination are repaired with the
      [Missing_frame] inferrer when a unique tail-call path exists,
      otherwise the outer context is truncated. *)

type stats = {
  st_samples : int;
  st_dropped_misaligned : int;
  st_gaps_resolved : int;   (** missing-frame gaps repaired *)
  st_gaps_failed : int;     (** gaps that truncated the context *)
}

type stream
(** Online reconstruction state. [start] once per profiled binary, [feed]
    each sample (scratch-safe: only ints are read out of the buffers),
    [finish] for the trie + stats. With missing-frame inference the
    [Missing_frame.t] passed to [start] must already be complete (built
    online during the profiling run and finished before the first [feed]);
    path uniqueness depends on the whole edge table.

    Caller stacks are resolved incrementally. A caller state (the
    reconstructed path of a caller-stack prefix, the function its innermost
    call targets, and the gap-counter deltas bridging it costs) is
    hash-consed on (outer state, return address), so samples sharing a
    caller prefix share it; the LBR walk keeps a stack of states, popping
    one to undo a call and stepping one to undo a return. Branch
    classification, call-before resolution and inline level paths read the
    dense {!Csspgo_profgen.Bindex} tables; each step, each range [(lo, hi)]
    and each (caller state, range) attribution is one int-keyed hash probe.
    Path frames resolve their trie node lazily, so the trie holds exactly
    the nodes some probe hit or callsite target reached.

    Allocation contract: the attribution of a (caller state, range) pair
    is memoized (up to 2^16 pairs) as its trie bumps and gap deltas. A
    memo hit reached through interned states allocates nothing: it adds
    the gap deltas and counts one repeat, and [finish] applies each pair's
    bumps once, scaled by its repeats. A miss, or a step to a caller state
    not seen before, allocates its path frames and bumps once, and applies
    the bumps at once (so trie nodes and count keys are created in sample
    order). *)

val start :
  ?name_of:(Csspgo_ir.Guid.t -> string option) ->
  ?missing:Missing_frame.t ->
  checksum_of:(Csspgo_ir.Guid.t -> int64) ->
  ?obs:Csspgo_obs.Metrics.t ->
  Csspgo_profgen.Bindex.t ->
  stream

val feed :
  stream ->
  lbr:(int * int) array -> lbr_len:int -> stack:int array -> stack_len:int -> unit

val finish : stream -> Csspgo_profile.Ctx_profile.t * stats
(** Also flushes telemetry to [obs], accumulated locally during the run:
    [ctx.samples], [ctx.dropped-misaligned], [ctx.gaps-resolved],
    [ctx.gaps-failed], [ctx.inferred-frames] counters and the
    [ctx.context-depth] histogram (stack depth per aligned sample).
    Observation never changes attribution. *)

val reconstruct :
  ?name_of:(Csspgo_ir.Guid.t -> string option) ->
  ?missing:Missing_frame.t ->
  checksum_of:(Csspgo_ir.Guid.t -> int64) ->
  Csspgo_codegen.Mach.binary ->
  Csspgo_vm.Machine.sample list ->
  Csspgo_profile.Ctx_profile.t * stats
