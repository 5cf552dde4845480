(** The chaos oracle: global invariants that must hold after every
    reconfiguration round and membership event, no matter what the
    fault plan did.

    The checks mirror the paper's correctness arguments rather than
    implementation details: ANU's region map always covers exactly
    half the unit interval; a file set always has exactly one place to
    be (an alive owner, a move in flight, or an orphan awaiting
    adoption — never two owners, never silently gone); region measures
    never go negative; no request is ever lost (submitted = completed
    + inflight + buffered + lock-waiting); at most one live, unfenced
    server believes it holds the delegate lease, and its epoch matches
    the lease on disk; every partitioned server is fenced at the disk
    and no zombie write has ever landed; and the on-disk ownership
    ledger, replayed (with torn records repaired first), agrees with
    in-memory ownership.

    When the cluster carries a non-flat {!Sharedfs.Topology}, two
    further checks bound correlated damage: {!domain_spread} (no
    domain maps more than its server share plus slack of the unit
    interval) and {!collateral_bounded} (no domain holds more than
    share-plus-slack of the placed file sets, with a three-sigma
    binomial allowance for hashing noise).  Both are vacuous over flat
    topologies, so pre-topology runs are unaffected. *)

type violation = {
  time : float;  (** virtual time the check ran *)
  what : string;  (** human-readable description of the breach *)
}

val pp_violation : Format.formatter -> violation -> unit

(** [check ~cluster ~policy ()] runs every invariant and returns the
    violations found (empty when healthy).

    [eps] (default [1e-9]) is the tolerance on region-measure sums.
    [extra] (default none) appends custom checks — the test suite uses
    it to plant a deliberately broken invariant and prove the harness
    catches it; each returned string becomes one violation.

    [spread_slack] (default [0.1], matching
    [Anu.default_config.domain_spread]) is the slack both domain
    checks allow over a domain's fair share.

    Note the ledger check runs [Cluster.fsck ~repair:true], so a check
    pass repairs any torn records it finds (counted under
    [ledger.repaired]); only unrecoverable divergence is reported. *)
val check :
  ?eps:float ->
  ?spread_slack:float ->
  ?extra:(unit -> string list) ->
  cluster:Sharedfs.Cluster.t ->
  policy:Placement.Policy.t ->
  unit ->
  violation list

(** Delta-maintained accumulators for the per-round subset of the
    invariants — half occupancy, negative regions, request
    conservation and domain spread.  A 10,000-server round checks in
    O(changed servers + #domains) instead of O(n): {!Acc.round} drains
    the policy's {!Placement.Policy.t.changed_servers} journal and
    applies measure deltas to running sums; {!Acc.check} decides
    verdicts from those sums and renders fired messages with the same
    text as the full recompute, which remains the oracle ({!check} is
    unchanged and the test suite pins that both agree).  Membership
    events change [n] and the per-domain member counts, which the
    deltas cannot see — call {!Acc.resync} (full O(n) rebuild) after
    every failure or addition; the runner's light-invariants mode does
    exactly this. *)
module Acc : sig
  type t

  (** [create ~cluster ~policy ()] snapshots the policy's current
      regions ([eps], [slack] as in {!check}); the journal is drained
      so subsequent rounds see only new deltas. *)
  val create :
    ?eps:float ->
    ?slack:float ->
    cluster:Sharedfs.Cluster.t ->
    policy:Placement.Policy.t ->
    unit ->
    t

  (** Apply one reconfiguration round's deltas — O(changed). *)
  val round : t -> unit

  (** Full rebuild from [policy.regions ()] — O(n).  Required after
      membership events; also re-zeroes any accumulated float drift. *)
  val resync : t -> unit

  (** Verdicts from the running sums — O(#negatives + #domains).  When
      half occupancy or domain spread fires, the numbers in its
      message are folded exactly from [policy.regions ()] (one O(n)
      pass per such call), so the text equals {!check}'s. *)
  val check : t -> cluster:Sharedfs.Cluster.t -> violation list
end

(** [domain_spread ~cluster ~policy ()] checks the geometric half of
    the collateral bound: under the cluster's topology, no failure
    domain's summed region measure may exceed
    [(members / map servers + slack)] of the mapped total ([slack]
    defaults to [0.1]).  Empty for flat topologies and for policies
    exposing no regions.  Each returned string describes one
    over-concentrated domain. *)
val domain_spread :
  ?slack:float ->
  cluster:Sharedfs.Cluster.t ->
  policy:Placement.Policy.t ->
  unit ->
  string list

(** [collateral_bounded ~cluster ()] checks the material half of the
    collateral bound: no failure domain may hold (own, or be receiving
    via a move) more than [cap + 3 sqrt(cap (1 - cap) / placed)] of
    the placed file sets, where [cap = share + slack] and [share] is
    the domain's fraction of the {e alive} servers — so after a rival
    domain dies, the survivor's share grows and absorbing the orphans
    is not a violation.  The three-sigma term absorbs hashing noise: a
    spread-constrained domain sits exactly at its geometric cap, so
    its set count scatters binomially around it.  Empty for flat
    topologies. *)
val collateral_bounded :
  ?slack:float -> cluster:Sharedfs.Cluster.t -> unit -> string list
