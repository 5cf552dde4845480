module Id = Sharedfs.Server_id

type event_action =
  | Fail of int
  | Recover of int
  | Add of int * float
  | Set_speed of int * float
  | Delegate_crash
  | Decommission of int

type event = { at : float; action : event_action }

(* Seconds a decommissioned server stays up after its sets were
   re-addressed, so the clean drain (flush-based moves) can finish
   before the machine actually goes away. *)
let decommission_grace = 30.0

type result = {
  label : string;
  policy_name : string;
  duration : float;
  server_series : (int * Desim.Timeseries.point list) list;
  per_server_mean : (int * float) list;
  per_server_requests : (int * int) list;
  utilizations : (int * float) list;
  overall_mean : float;
  overall_p95 : float;
  overall_max : float;
  submitted : int;
  completed : int;
  moves : Sharedfs.Cluster.move_record list;
  reconfig_rounds : int;
  sim_events : int;
  sim_wall_seconds : float;
  sim_peak_pending : int;
  metrics : Obs.Metrics.snapshot option;
  telemetry : Obs.Telemetry.snapshot option;
  violations : (float * string) list;
}

type throughput = {
  events : int;
  engine_wall_seconds : float;
  events_per_second : float;
}

(* The one place engine throughput is computed: perf JSON, the bench
   CLI banner and the stream bench all call this, so the numbers they
   print can never diverge. *)
let throughput results =
  let events, engine_wall_seconds =
    List.fold_left
      (fun (events, wall) r -> (events + r.sim_events, wall +. r.sim_wall_seconds))
      (0, 0.0) results
  in
  {
    events;
    engine_wall_seconds;
    events_per_second =
      (if engine_wall_seconds > 0.0 then
         float_of_int events /. engine_wall_seconds
       else 0.0);
  }

(* Apply the policy's current addressing: diff against what the
   cluster believes and issue the moves.  Returns how many file sets
   changed owner (the size of the re-addressing sweep).  [owner] and
   [move] abstract the executor — the serial cluster or the parallel
   engine — so both reconcile in the identical name order. *)
let reconcile_with ~locate ~owner ~move names =
  List.fold_left
    (fun moved name ->
      let want = locate name in
      match owner name with
      | Some have when Id.equal have want -> moved
      | Some _ | None ->
        move ~file_set:name ~dst:want;
        moved + 1)
    0 names

let reconcile cluster policy names =
  reconcile_with ~locate:policy.Placement.Policy.locate
    ~owner:(Sharedfs.Cluster.owner cluster)
    ~move:(Sharedfs.Cluster.move cluster)
    names

(* Prescient oracle: a second, independent cursor over the same
   stream.  Each forced window sweeps the cursor across [lo, hi),
   accumulating effective demand per file set in stream order — the
   same additions in the same order as [Trace.window_demand], so the
   answers are float-identical.  Rounds force windows in time order
   (and contiguously), so one pass suffices; nothing is built unless
   a policy actually forces the lazy (only prescient does). *)
let make_future_demand stream names =
  let fs_names = Array.of_list names in
  let oracle = lazy (Workload.Stream.start stream) in
  let oracle_pending = ref None in
  let window_acc = Array.make (Stdlib.max 1 (Array.length fs_names)) 0.0 in
  let window_seen = Array.make (Stdlib.max 1 (Array.length fs_names)) false in
  fun ~lo ~hi ->
    lazy
      (let cursor = Lazy.force oracle in
       let touched = ref [] in
       let next () =
         match !oracle_pending with
         | Some _ as it ->
           oracle_pending := None;
           it
         | None -> cursor ()
       in
       let rec sweep () =
         match next () with
         | None -> ()
         | Some it ->
           if it.Workload.Stream.time >= hi then oracle_pending := Some it
           else begin
             (if it.Workload.Stream.time >= lo then begin
                let fs = it.Workload.Stream.fs in
                if not window_seen.(fs) then begin
                  window_seen.(fs) <- true;
                  touched := fs :: !touched
                end;
                window_acc.(fs) <-
                  window_acc.(fs)
                  +. it.Workload.Stream.demand
                     *. Sharedfs.Request.demand_factor
                          it.Workload.Stream.request.Sharedfs.Request.op
              end);
             sweep ()
           end
       in
       sweep ();
       let out =
         List.map (fun fs -> (fs_names.(fs), window_acc.(fs))) !touched
       in
       List.iter
         (fun fs ->
           window_acc.(fs) <- 0.0;
           window_seen.(fs) <- false)
         !touched;
       List.sort (fun (a, _) (b, _) -> String.compare a b) out)

(* Per-file-set latency summaries without retained samples: exact
   mean/max via Welford, log-binned p95 — what keeps a 10M-request run
   in constant memory.  A file set is served by one server at a time
   (and only changes hands at quiescent move boundaries), so the
   per-set completion order — and hence the merged summary — is
   identical whether the run executed serially or sharded across
   domains. *)
type latencies = {
  moments : Desim.Welford.t array;
  quantiles : Desim.Stat.Quantile.t array;
  mutable completed : int;
}

let latencies names =
  let nfs = Stdlib.max 1 (List.length names) in
  {
    moments = Array.init nfs (fun _ -> Desim.Welford.create ());
    quantiles = Array.init nfs (fun _ -> Desim.Stat.Quantile.create ());
    completed = 0;
  }

let record_latency l ~fs ~latency =
  l.completed <- l.completed + 1;
  Desim.Welford.add l.moments.(fs) latency;
  Desim.Stat.Quantile.add l.quantiles.(fs) latency

(* Fold the per-file-set summaries in file-set {e name} order — an
   order independent of both the engine (serial vs domain-parallel)
   and the stream's id numbering ([of_trace] assigns ids by first
   appearance, generators by declaration), so every driver of the
   same workload produces bit-identical overall numbers. *)
let merge_latency ~names l =
  let nfs = Array.length l.moments in
  let merge_order = Array.init nfs (fun i -> i) in
  let names_arr = Array.of_list names in
  if Array.length names_arr = nfs then
    Array.sort
      (fun a b -> String.compare names_arr.(a) names_arr.(b))
      merge_order;
  let moments = ref l.moments.(merge_order.(0)) in
  let quantile = Desim.Stat.Quantile.create () in
  Desim.Stat.Quantile.merge_into ~into:quantile l.quantiles.(merge_order.(0));
  for i = 1 to nfs - 1 do
    moments := Desim.Welford.merge !moments l.moments.(merge_order.(i));
    Desim.Stat.Quantile.merge_into ~into:quantile
      l.quantiles.(merge_order.(i))
  done;
  (!moments, quantile)

(* The one place a [result] is built, whichever engine ran: per-server
   series, means, request counts and utilizations from the final
   server objects, plus the merged latency summary. *)
let assemble scenario policy stream ~names ~latencies:l ~servers ~end_time
    ~moves ~reconfig_rounds ~sim_events ~sim_wall_seconds ~sim_peak_pending
    ~metrics ~telemetry ~violations =
  let duration = Workload.Stream.duration stream in
  let server_series =
    List.map
      (fun s ->
        ( Id.to_int (Sharedfs.Server.id s),
          Sharedfs.Server.series s ~until:duration ))
      servers
  in
  let per_server_mean =
    List.map
      (fun (id, points) ->
        let pairs =
          List.map
            (fun p ->
              (p.Desim.Timeseries.mean, float_of_int p.Desim.Timeseries.count))
            points
        in
        (id, Desim.Stat.weighted_mean pairs))
      server_series
  in
  let per_server_requests =
    List.map
      (fun (id, points) ->
        ( id,
          List.fold_left
            (fun acc p -> acc + p.Desim.Timeseries.count)
            0 points ))
      server_series
  in
  let utilizations =
    List.map
      (fun s ->
        ( Id.to_int (Sharedfs.Server.id s),
          Sharedfs.Server.utilization s ~until:end_time ))
      servers
  in
  let lat_moments, lat_quantile = merge_latency ~names l in
  {
    label = scenario.Scenario.label;
    policy_name = policy.Placement.Policy.name;
    duration;
    server_series;
    per_server_mean;
    per_server_requests;
    utilizations;
    overall_mean = Desim.Welford.mean lat_moments;
    overall_p95 =
      (if Desim.Stat.Quantile.count lat_quantile = 0 then 0.0
       else Desim.Stat.Quantile.percentile lat_quantile 95.0);
    overall_max =
      (if Desim.Welford.count lat_moments = 0 then 0.0
       else Desim.Welford.max_value lat_moments);
    submitted = Workload.Stream.total stream;
    completed = l.completed;
    moves;
    reconfig_rounds;
    sim_events;
    sim_wall_seconds;
    sim_peak_pending;
    metrics;
    telemetry;
    violations;
  }

let run_stream_serial scenario spec ~stream ~events ~obs ?faults
    ?check_invariants ?invariant_extra ?(light_invariants = false) ?disk
    ?restore ?on_sim_created ?on_cluster ?on_request_complete () =
  let sim = Desim.Sim.create () in
  Option.iter (fun f -> f sim) on_sim_created;
  let disk =
    match disk with Some d -> d | None -> Sharedfs.Shared_disk.create ()
  in
  let names = Workload.Stream.file_sets stream in
  let catalog = Sharedfs.File_set.Catalog.create names in
  let servers =
    List.map (fun (id, s) -> (Id.of_int id, s)) scenario.Scenario.servers
  in
  let cluster =
    Sharedfs.Cluster.create sim ~disk ~catalog
      ~move_config:scenario.Scenario.move_config
      ?cache_config:scenario.Scenario.cache_config
      ~series_interval:scenario.Scenario.series_interval ~servers
      ?topology:scenario.Scenario.topology ~obs ()
  in
  Option.iter (fun f -> f cluster) on_cluster;
  (* The root span: everything else in the trace nests (directly or
     causally) under the run.  Deterministic id 1 when tracing. *)
  let run_span =
    Obs.Span.begin_ obs ~time:0.0 ~name:"run" ~cat:"run" ()
  in
  let emit_rehash ~time ~trigger moved =
    if Obs.Ctx.tracing obs then
      Obs.Ctx.emit obs
        (Obs.Event.Rehash_round
           { time; trigger; checked = List.length names; moved })
  in
  let policy = Scenario.make_policy spec ~scenario ~file_sets:names in
  let duration = Workload.Stream.duration stream in
  let interval = scenario.Scenario.reconfig_interval in
  let lat = latencies names in
  let reconfig_rounds = ref 0 in
  (* Chaos plumbing.  Invariants are checked after every round and
     membership event by default exactly when faults are injected;
     [check_invariants] overrides either way. *)
  let do_check =
    match check_invariants with
    | Some b -> b
    | None -> Option.is_some faults
  in
  let violations = ref [] in
  let bump name =
    match Obs.Ctx.metrics obs with
    | None -> ()
    | Some m -> Obs.Metrics.Counter.incr (Obs.Metrics.counter m name)
  in
  let record v =
    violations :=
      (v.Fault.Invariants.time, v.Fault.Invariants.what) :: !violations;
    bump "invariants.violations";
    if Obs.Ctx.tracing obs then
      Obs.Ctx.emit obs
        (Obs.Event.Invariant_violation
           { time = v.Fault.Invariants.time; what = v.Fault.Invariants.what })
  in
  (* Light mode keeps a delta-maintained accumulator for the per-round
     checks: rounds cost O(changed servers) instead of a full cluster
     walk, which is what makes checked 10k-server runs affordable.
     Membership events (rare) still run the full oracle check and
     resync the accumulator. *)
  let inv_acc =
    if do_check && light_invariants then
      Some (Fault.Invariants.Acc.create ~cluster ~policy ())
    else None
  in
  let check_now () =
    if do_check then begin
      List.iter record
        (Fault.Invariants.check ?extra:invariant_extra ~cluster ~policy ());
      Option.iter Fault.Invariants.Acc.resync inv_acc
    end
  in
  let check_round () =
    if do_check then
      match inv_acc with
      | Some acc ->
        Fault.Invariants.Acc.round acc;
        List.iter record (Fault.Invariants.Acc.check acc ~cluster)
      | None -> check_now ()
  in
  (match (Obs.Ctx.metrics obs, faults) with
  | Some m, Some _ ->
    (* Pre-register the fault-path counters so a chaos summary can
       read them from the snapshot even when they stayed at zero. *)
    List.iter
      (fun n -> ignore (Obs.Metrics.counter m n))
      [
        "delegate.reelections"; "reports.lost"; "rounds.degraded";
        "rounds.skipped"; "rounds.fenced"; "fence.epoch_bump";
        "fence.write_rejected"; "ledger.torn_writes"; "ledger.replays";
        "ledger.repaired"; "invariants.violations";
      ]
  | _ -> ());
  (* What every membership change, and every round that decides
     nothing, ends with: one reconcile re-places the orphans and
     re-addresses the rest, traced as one rehash under [trigger], then
     one invariant sweep. *)
  let settle ~time ~trigger =
    let moved = reconcile cluster policy names in
    emit_rehash ~time ~trigger moved;
    check_now ()
  in
  let emit_membership ~time server change =
    if Obs.Ctx.tracing obs then
      Obs.Ctx.emit obs (Obs.Event.Membership { time; server; change })
  in
  let emit_partition ~time id ~link ~healed =
    if Obs.Ctx.tracing obs then
      Obs.Ctx.emit obs
        (Obs.Event.Partition
           {
             time;
             server = Id.to_int id;
             link = (match link with `Cluster -> "cluster" | `Disk -> "disk");
             healed;
           })
  in
  let do_delegate_crash () =
    (* Picking the successor is trivial (lowest alive id); what a crash
       actually costs is whatever non-replicated state the delegate
       held — ANU's divergent-tuning history — plus an epoch bump on
       the on-disk lease, which fences any round the old incumbent
       still had in flight. *)
    policy.Placement.Policy.delegate_crashed ();
    let (_ : int) = Sharedfs.Cluster.reelect_delegate cluster in
    bump "delegate.reelections"
  in
  (* Guarded membership transitions, shared between scripted events
     and the fault injector.  A per-server fault is a one-member list;
     a correlated domain fault passes every member, and [domain] only
     picks the rehash trigger.  Members not in the source state are
     skipped individually: crashing a dead server or recovering an
     alive one is a no-op end to end (a double-fired fault would
     otherwise corrupt the policy's region map), and a domain fault
     overlapping per-server faults stays a no-op per member.

     Every member changes state first, then the policy learns of each
     departure/arrival, and only then does ONE [settle] re-place the
     orphans — so a file set is never parked on a member the same
     fault is about to kill.  A departure fences first (inside
     [fail_server]/[partition_server]), then re-elects once if any
     member held the lease: an isolated incumbent may still believe it
     is the delegate, but its writes are already dead on arrival and
     the epoch bump fences whatever round it had in flight; the
     reconfiguration state dies with it and the next delegate runs
     from replicated state only.  [change] returns what [trace] needs
     to know about a member's old state. *)
  let transition ~trigger ~eligible ~departing ~change ~trace members =
    match List.filter eligible members with
    | [] -> ()
    | ids ->
      let now = Desim.Sim.now sim in
      let delegate_dies =
        departing
        &&
        match
          Sharedfs.Delegate.elect ~alive:(Sharedfs.Cluster.alive_ids cluster)
        with
        | Some d -> List.exists (Id.equal d) ids
        | None -> false
      in
      let changed = List.map (fun id -> (id, change id)) ids in
      if delegate_dies then do_delegate_crash ();
      List.iter
        (if departing then policy.Placement.Policy.server_failed
         else policy.Placement.Policy.server_added)
        ids;
      List.iter (fun (id, v) -> trace ~time:now id v) changed;
      settle ~time:now ~trigger
  in
  let present id = Sharedfs.Cluster.mem_server cluster id in
  let failed id =
    Sharedfs.Server.failed (Sharedfs.Cluster.server cluster id)
  in
  let crash ~domain =
    transition
      ~trigger:(if Option.is_none domain then "fail" else "domain-crash")
      ~eligible:(fun id -> present id && not (failed id))
      ~departing:true
      ~change:(fun id ->
        ignore (Sharedfs.Cluster.fail_server cluster id : string list))
      ~trace:(fun ~time id () ->
        emit_membership ~time (Id.to_int id) Obs.Event.Failed)
  in
  let recover ~domain =
    transition
      ~trigger:
        (if Option.is_none domain then "recover" else "domain-recover")
      ~eligible:(fun id -> present id && failed id)
      ~departing:false
      ~change:(fun id -> Sharedfs.Cluster.recover_server cluster id)
      ~trace:(fun ~time id () ->
        emit_membership ~time (Id.to_int id) Obs.Event.Recovered)
  in
  let partition ~domain members ~link =
    transition
      ~trigger:
        (if Option.is_none domain then "partition" else "domain-partition")
      ~eligible:(fun id ->
        present id
        && (not (failed id))
        && not (Sharedfs.Cluster.is_partitioned cluster id))
      ~departing:true
      ~change:(fun id ->
        ignore
          (Sharedfs.Cluster.partition_server cluster id ~link : string list))
      ~trace:(fun ~time id () -> emit_partition ~time id ~link ~healed:false)
      members
  in
  let heal ~domain =
    transition
      ~trigger:(if Option.is_none domain then "heal" else "domain-heal")
      ~eligible:(fun id ->
        present id && Sharedfs.Cluster.is_partitioned cluster id)
      ~departing:false
      ~change:(fun id ->
        let link =
          match
            List.assoc_opt id (Sharedfs.Cluster.partitioned_servers cluster)
          with
          | Some l -> l
          | None -> `Cluster
        in
        (* [recover_server] takes the partition-heal path: unfence,
           drop the stale lease belief, then rejoin cold. *)
        Sharedfs.Cluster.recover_server cluster id;
        link)
      ~trace:(fun ~time id link ->
        emit_partition ~time id ~link ~healed:true;
        emit_membership ~time (Id.to_int id) Obs.Event.Recovered)
  in
  let injector =
    Option.map
      (fun plan ->
        Fault.Injector.arm ~sim ~cluster ~obs ~duration
          ~actions:
            {
              Fault.Injector.crash;
              recover;
              partition;
              heal;
              crash_delegate = do_delegate_crash;
            }
          plan)
      faults
  in
  let crash_rounds =
    match faults with
    | None -> []
    | Some plan -> Fault.Plan.delegate_crash_rounds plan
  in
  let future_demand = make_future_demand stream names in
  (* Time-zero delegate round: no latencies yet, but the prescient
     oracle sees the first interval and starts balanced. *)
  policy.Placement.Policy.rebalance
    {
      Placement.Policy.time = 0.0;
      reports = [];
      future_demand = future_demand ~lo:0.0 ~hi:interval;
    };
  (match restore with
  | None ->
    Sharedfs.Cluster.assign_initial cluster
      (Placement.Policy.assignment_of policy names);
    (* Chaos runs establish the delegate lease at time zero, so a fault
       landing before the first round already finds an incumbent to
       fence.  Fault-free runs never touch the lease (byte-identical
       traces to the pre-lease engine). *)
    if Option.is_some injector then
      ignore (Sharedfs.Cluster.ensure_delegate cluster : int)
  | Some (owned, orphaned) ->
    (* Post-crash resumption: the time-zero placement comes from the
       surviving ledger, not the policy.  Forced re-election (never
       renewal) bumps the epoch past everything the dead incarnation
       journaled — its lease can look unexpired to a clock that
       restarted at zero — and one reconcile sweep then lets the fresh
       policy adopt the orphans and re-address the survivors through
       the ordinary journaled move path. *)
    let (_ : int * int) =
      Sharedfs.Cluster.restore_recovered cluster ~owned ~orphaned
    in
    ignore (Sharedfs.Cluster.reelect_delegate cluster : int);
    settle ~time:0.0 ~trigger:"recovery");
  (* Two independent gates pick the request path.

     Completions: unless something observes individual requests
     (tracing spans, telemetry, [on_request_complete]), every request
     completes through the station sink.  It takes a slot in the
     cluster's in-flight registry and no closure; crash and partition
     replay, lock grants, move buffering, metrics and the invariant
     sweeps all work from the registry.  Otherwise each request carries
     a completion closure ({!Sharedfs.Cluster.submit_fs}).

     Arrivals: a fault-free run with no scripted events, no invariant
     sweeps, no [restore] and no metrics, whose completions take the
     sink and whose stream offers a column cursor, feeds its requests
     as column rows to the engine's external ordered source
     ({!Desim.Sim.set_source}): arrivals never occupy the heap, so the
     heap holds only completions and timers.  Every other run keeps
     its arrivals as heap events from the item cursor, one pending at
     a time and re-armed by one preallocated action: heap occupancy
     stays O(streams + inflight), and the heap peak and the event
     sequence numbers stay those the benchmark's exact oracle pins. *)
  let sink_completions =
    Option.is_none on_request_complete
    && (not (Obs.Ctx.tracing obs))
    && Option.is_none (Obs.Ctx.telemetry obs)
  in
  let column_arrivals =
    sink_completions
    && Option.is_none faults && events = []
    && (not do_check)
    && Option.is_none restore
    && Option.is_none (Obs.Ctx.metrics obs)
  in
  if sink_completions then
    Sharedfs.Cluster.set_stream_sink cluster (fun ~fs ~latency ->
        record_latency lat ~fs ~latency);
  let batch =
    if column_arrivals then Workload.Stream.start_batch stream else None
  in
  (match batch with
  | Some batch ->
    let cols = Workload.Stream.make_cols 64 in
    let next = [| Float.infinity |] in
    let idx = ref 0 in
    let cnt = ref 0 in
    let refill () =
      let n = batch cols in
      cnt := n;
      idx := 0;
      next.(0) <-
        (if n > 0 then cols.Workload.Stream.times.(0) else Float.infinity)
    in
    let fire () =
      let i = !idx in
      let fs = cols.Workload.Stream.fs.(i) in
      let op = cols.Workload.Stream.ops.(i) in
      let path_hash = cols.Workload.Stream.path.(i) in
      let client = cols.Workload.Stream.client.(i) in
      let demand = cols.Workload.Stream.demand.(i) in
      idx := i + 1;
      (* Advance the cursor before submitting (mirroring the event
         path's arm-next-then-submit order); the row was copied out
         above, so overwriting the columns on refill is safe. *)
      if !idx = !cnt then refill ()
      else next.(0) <- cols.Workload.Stream.times.(!idx);
      Sharedfs.Cluster.submit_stream cluster ~fs ~op ~base_demand:demand
        ~path_hash ~client
    in
    refill ();
    Desim.Sim.set_source sim ~next ~fire
  | None ->
    let arrivals = Workload.Stream.start stream in
    let submit (it : Workload.Stream.item) =
      let req = it.Workload.Stream.request in
      if sink_completions then
        Sharedfs.Cluster.submit_stream cluster ~fs:it.Workload.Stream.fs
          ~op:req.Sharedfs.Request.op ~base_demand:it.Workload.Stream.demand
          ~path_hash:req.Sharedfs.Request.path_hash
          ~client:req.Sharedfs.Request.client
      else
        Sharedfs.Cluster.submit_fs cluster ~fs:it.Workload.Stream.fs
          ~base_demand:it.Workload.Stream.demand req
          ~on_complete:(fun ~latency ->
            record_latency lat ~fs:it.Workload.Stream.fs ~latency;
            match on_request_complete with
            | None -> ()
            | Some f ->
              f
                {
                  Workload.Trace.time = it.Workload.Stream.time;
                  request = req;
                  demand = it.Workload.Stream.demand;
                }
                ~latency)
    in
    (* [armed] holds the one arrival in the heap.  Its event arms the
       next arrival before submitting, so the next arrival's sequence
       number precedes everything the submission schedules. *)
    let armed = ref (arrivals ()) in
    let rec arrive () =
      match !armed with
      | None -> ()
      | Some it ->
        armed := arrivals ();
        arm ();
        submit it
    and arm () =
      match !armed with
      | Some next ->
        ignore
          (Desim.Sim.schedule_at sim ~time:next.Workload.Stream.time arrive
            : Desim.Sim.handle)
      | None -> ()
    in
    arm ());
  (* Delegate rounds at every interval boundary within the trace; each
     round arms the next, so at most one round event is pending. *)
  let rounds = int_of_float (Float.floor (duration /. interval)) in
  let apply_round ?(parent = Obs.Span.none) ~at ~round reports =
    (* Tune and apply are instantaneous in virtual time (the policy
       decides and the moves are issued at the decision instant); their
       spans are zero-width but keep the round's causal structure —
       the moves they issue open their own spans in the cluster. *)
    let now = Desim.Sim.now sim in
    let tspan =
      Obs.Span.begin_ obs ~time:now ~parent ~name:"tune" ~cat:"round" ()
    in
    policy.Placement.Policy.rebalance
      {
        Placement.Policy.time = at;
        reports;
        future_demand = future_demand ~lo:at ~hi:(at +. interval);
      };
    Obs.Span.end_ obs ~time:now ~id:tspan ~name:"tune" ~cat:"round" ();
    let aspan =
      Obs.Span.begin_ obs ~time:now ~parent ~name:"apply" ~cat:"round" ()
    in
    let moved = reconcile cluster policy names in
    Obs.Span.end_ obs ~time:now ~id:aspan ~name:"apply" ~cat:"round" ();
    if Obs.Ctx.tracing obs then begin
      Obs.Ctx.emit obs
        (Sharedfs.Delegate.round_event cluster ~time:at ~round
           ~average:(Sharedfs.Delegate.mean_latency reports)
           ~regions:(policy.Placement.Policy.regions ())
           reports);
      emit_rehash ~time:at ~trigger:"delegate-round" moved
    end;
    check_round ()
  in
  let rec arm_round k =
    if k <= rounds then begin
      let at = float_of_int k *. interval in
      let (_ : Desim.Sim.handle) =
        Desim.Sim.schedule_at sim ~time:at (fun () ->
            arm_round (k + 1);
            incr reconfig_rounds;
            let round = !reconfig_rounds in
            (* The round span is epoch-tagged: in fault-free runs the
               lease is never established and the in-memory epoch stays
               0; under chaos it carries the lease epoch the round ran
               under, which is exactly what fencing forensics needs. *)
            let rspan =
              Obs.Span.begin_ obs ~time:at ~parent:run_span ~name:"round"
                ~cat:"round"
                ~epoch:
                  (Sharedfs.Ledger.current_epoch
                     (Sharedfs.Cluster.ledger cluster))
                ()
            in
            let cspan =
              Obs.Span.begin_ obs ~time:at ~parent:rspan ~name:"collect"
                ~cat:"round" ()
            in
            let end_collect () =
              Obs.Span.end_ obs ~time:(Desim.Sim.now sim) ~id:cspan
                ~name:"collect" ~cat:"round" ()
            in
            let end_round outcome =
              Obs.Span.end_ obs ~time:(Desim.Sim.now sim) ~id:rspan
                ~name:"round" ~cat:"round" ~outcome ()
            in
            match injector with
            | None ->
              (* Fault-free fast path: synchronous collection, exactly
                 the pre-chaos behaviour (and byte-identical traces). *)
              let reports = Sharedfs.Delegate.collect cluster in
              end_collect ();
              apply_round ~parent:rspan ~at ~round reports;
              end_round "applied"
            | Some inj ->
              let plan = Option.get faults in
              let timeout = Fault.Plan.timeout plan in
              (* The round runs under the lease epoch it started with;
                 the decision only lands if that epoch still stands
                 when the reports are in.  Jitter draws come from a
                 per-round generator derived from the plan seed, so a
                 chaos run stays byte-replayable. *)
              let epoch_at_start = Sharedfs.Cluster.ensure_delegate cluster in
              let rng =
                Desim.Rng.create
                  ((Fault.Plan.seed plan * 1_000_003) + round)
              in
              let emit_degraded ~missing ~survivors ~skipped =
                if Obs.Ctx.tracing obs then
                  Obs.Ctx.emit obs
                    (Obs.Event.Round_degraded
                       {
                         time = at;
                         round;
                         missing = List.map Id.to_int missing;
                         survivors;
                         skipped;
                       })
              in
              Sharedfs.Delegate.collect_async cluster ~rng ~timeout
                ~fate:(fun ~server ~attempt ->
                  Fault.Injector.fate inj ~round ~server ~attempt)
                ~k:(fun outcome ->
                  end_collect ();
                  if List.mem round crash_rounds then begin
                    (* The delegate dies after collecting but before
                       deciding: the reports (and its divergent-tuning
                       history) die with it, the next delegate takes
                       over from replicated state, and this round tunes
                       nothing.  Re-placement still runs so orphans
                       heal. *)
                    Fault.Injector.note_delegate_crash inj;
                    settle ~time:at ~trigger:"delegate-crash";
                    end_round "delegate-crash"
                  end
                  else if Sharedfs.Cluster.ensure_delegate cluster
                          <> epoch_at_start
                  then begin
                    (* The lease changed hands while reports were in
                       flight (the incumbent was partitioned or
                       crashed): the round's decision is fenced —
                       discarded, never applied — but orphan healing
                       still runs under the new epoch. *)
                    bump "rounds.fenced";
                    settle ~time:at ~trigger:"round-fenced";
                    end_round "fenced"
                  end
                  else
                    match outcome with
                    | Sharedfs.Delegate.Round_complete reports ->
                      apply_round ~parent:rspan ~at ~round reports;
                      end_round "applied"
                    | Sharedfs.Delegate.Round_degraded { reports; missing } ->
                      (* A quorum reported: average over the survivors
                         rather than wait for the dead. *)
                      bump "rounds.degraded";
                      emit_degraded ~missing
                        ~survivors:(List.length reports)
                        ~skipped:false;
                      apply_round ~parent:rspan ~at ~round reports;
                      end_round "degraded"
                    | Sharedfs.Delegate.Round_skipped { missing } ->
                      (* Below quorum: tuning on so little data would be
                         tuning on garbage, so the round decides
                         nothing.  Orphan healing must not wait for the
                         next healthy round, though. *)
                      bump "rounds.skipped";
                      emit_degraded ~missing ~survivors:0 ~skipped:true;
                      settle ~time:at ~trigger:"round-skipped";
                      end_round "skipped"))
      in
      ()
    end
  in
  arm_round 1;
  (* Scripted membership changes. *)
  List.iter
    (fun { at; action } ->
      let (_ : Desim.Sim.handle) =
        Desim.Sim.schedule_at sim ~time:at (fun () ->
            match action with
            | Fail raw -> crash ~domain:None [ Id.of_int raw ]
            | Recover raw -> recover ~domain:None [ Id.of_int raw ]
            | Add (raw, speed) ->
              let id = Id.of_int raw in
              Sharedfs.Cluster.add_server cluster id ~speed;
              policy.Placement.Policy.server_added id;
              emit_membership ~time:at raw (Obs.Event.Added speed);
              settle ~time:at ~trigger:"add"
            | Set_speed (raw, speed) ->
              Sharedfs.Server.set_speed
                (Sharedfs.Cluster.server cluster (Id.of_int raw))
                speed;
              emit_membership ~time:at raw (Obs.Event.Speed_changed speed)
            | Delegate_crash -> do_delegate_crash ()
            | Decommission raw ->
              let id = Id.of_int raw in
              if present id && not (failed id) then begin
                (* Planned removal: re-address first while the server
                   is still up, so its sets leave by the cheap flush
                   path instead of orphan recovery; the machine only
                   goes away after a drain grace period. *)
                policy.Placement.Policy.server_failed id;
                emit_membership ~time:at raw Obs.Event.Decommissioned;
                settle ~time:at ~trigger:"decommission";
                let (_ : Desim.Sim.handle) =
                  Desim.Sim.schedule sim ~delay:decommission_grace
                    (fun () ->
                      if failed id then check_now ()
                      else begin
                        (* Anything that failed to drain in time goes
                           down the crash path and heals as an
                           orphan. *)
                        let (_ : string list) =
                          Sharedfs.Cluster.fail_server cluster id
                        in
                        settle ~time:(Desim.Sim.now sim)
                          ~trigger:"decommission-final"
                      end)
                in
                ()
              end)
      in
      ())
    events;
  (* Run to completion: every queued request eventually drains. *)
  let profile = Desim.Sim.run_profiled sim in
  let end_time = Float.max duration (Desim.Sim.now sim) in
  Obs.Span.end_ obs ~time:end_time ~id:run_span ~name:"run" ~cat:"run" ();
  assemble scenario policy stream ~names ~latencies:lat
    ~servers:(Sharedfs.Cluster.servers cluster)
    ~end_time ~moves:(Sharedfs.Cluster.moves cluster)
    ~reconfig_rounds:!reconfig_rounds ~sim_events:profile.Desim.Sim.fired
    ~sim_wall_seconds:profile.Desim.Sim.wall_seconds
    ~sim_peak_pending:(Desim.Sim.peak_pending sim)
    ~metrics:(Obs.Ctx.snapshot obs)
    ~telemetry:
      (Option.map
         (fun tl -> Obs.Telemetry.snapshot tl ~until:end_time)
         (Obs.Ctx.telemetry obs))
    ~violations:(List.rev !violations)

(* The domain-parallel driver: same policy machinery, same stream,
   same accumulators — only the event execution is sharded.  The
   delegate rounds run here as a plain loop (the engine's barriers)
   instead of simulator events; [sim_events] adds them back so the
   count matches the serial run, where each round is one fired
   event. *)
let run_stream_par scenario spec ~stream ~batch ~jobs () =
  let names = Workload.Stream.file_sets stream in
  let policy = Scenario.make_policy spec ~scenario ~file_sets:names in
  let duration = Workload.Stream.duration stream in
  let interval = scenario.Scenario.reconfig_interval in
  let lat = latencies names in
  let emit ~fs ~latency = record_latency lat ~fs ~latency in
  let future_demand = make_future_demand stream names in
  let servers =
    List.map (fun (id, s) -> (Id.of_int id, s)) scenario.Scenario.servers
  in
  let engine =
    Stream_par.create ~jobs ~servers ~names
      ~move_config:scenario.Scenario.move_config
      ?cache_config:scenario.Scenario.cache_config
      ~series_interval:scenario.Scenario.series_interval ~batch ()
  in
  policy.Placement.Policy.rebalance
    {
      Placement.Policy.time = 0.0;
      reports = [];
      future_demand = future_demand ~lo:0.0 ~hi:interval;
    };
  Stream_par.assign_initial engine
    (Placement.Policy.assignment_of policy names);
  let rounds = int_of_float (Float.floor (duration /. interval)) in
  let reconfig_rounds = ref 0 in
  let wall_start = Desim.Clock.now_ns () in
  for k = 1 to rounds do
    let at = float_of_int k *. interval in
    Stream_par.run_to engine ~time:at ~emit;
    incr reconfig_rounds;
    let reports = Stream_par.collect_reports engine in
    policy.Placement.Policy.rebalance
      {
        Placement.Policy.time = at;
        reports;
        future_demand = future_demand ~lo:at ~hi:(at +. interval);
      };
    ignore
      (reconcile_with ~locate:policy.Placement.Policy.locate
         ~owner:(Stream_par.owner engine)
         ~move:(Stream_par.move engine)
         names
        : int)
  done;
  Stream_par.drain engine ~emit;
  let sim_wall_seconds = Desim.Clock.seconds_since wall_start in
  let fired = Stream_par.events_fired engine in
  let peak = Stream_par.peak_pending engine in
  let end_time = Float.max duration (Stream_par.end_time engine) in
  let all_servers = Stream_par.servers engine in
  let moves = Stream_par.moves engine in
  Stream_par.finish engine;
  assemble scenario policy stream ~names ~latencies:lat ~servers:all_servers
    ~end_time ~moves ~reconfig_rounds:!reconfig_rounds
    ~sim_events:(fired + !reconfig_rounds) ~sim_wall_seconds
    ~sim_peak_pending:peak ~metrics:None ~telemetry:None ~violations:[]

let run_stream scenario spec ~stream ?(events = []) ?(obs = Obs.Ctx.null)
    ?faults ?check_invariants ?invariant_extra ?light_invariants
    ?on_sim_created ?on_cluster ?on_request_complete ?(jobs = 1) () =
  (* One figure runs several simulations, possibly concurrently (one
     per domain): derive a per-run context with a fresh metrics
     registry so the snapshot attached to this result covers exactly
     this run and no instrument is shared across domains. *)
  let obs = Obs.Ctx.isolated obs in
  (* The parallel engine supports exactly the streaming fast path:
     no faults, no scripted events, no per-request hooks, no
     invariant sweeps, no observability, no construction hooks, and a
     stream that offers a column cursor.  Anything else falls back to
     the serial driver silently — correctness first. *)
  let par_ok =
    jobs > 1
    && Option.is_none faults
    && events = []
    && Option.is_none on_request_complete
    && (match check_invariants with Some true -> false | Some false | None -> true)
    && Option.is_none on_sim_created
    && Option.is_none on_cluster
    && (not (Obs.Ctx.tracing obs))
    && Option.is_none (Obs.Ctx.metrics obs)
    && Option.is_none (Obs.Ctx.telemetry obs)
  in
  match (if par_ok then Workload.Stream.start_batch stream else None) with
  | Some batch -> run_stream_par scenario spec ~stream ~batch ~jobs ()
  | None ->
    run_stream_serial scenario spec ~stream ~events ~obs ?faults
      ?check_invariants ?invariant_extra ?light_invariants ?on_sim_created
      ?on_cluster ?on_request_complete ()

let run scenario spec ~trace ?events ?obs ?faults ?check_invariants
    ?invariant_extra ?on_sim_created ?on_cluster ?on_request_complete ?jobs ()
    =
  run_stream scenario spec ~stream:(Workload.Stream.of_trace trace) ?events
    ?obs ?faults ?check_invariants ?invariant_extra ?on_sim_created ?on_cluster
    ?on_request_complete ?jobs ()

(* ------------------------------------------------------------------ *)
(* Whole-cluster kill-and-restart                                      *)

exception Killed

type recovery = {
  crashed_at : float;
  crash_op : int option;
  crash_block : int option;
  replay_records : int;
  replay_torn : int;
  recovered_owned : int;
  recovered_orphaned : int;
  recovery_epoch : int;
  fsck : Sharedfs.Cluster.fsck_report;
  resumed : result;
}

type kill_outcome = Ran of result | Recovered of recovery

(* The surviving portion of a stream: an independent stream yielding
   exactly the items strictly after [after], at their original times.
   The restarted simulator's clock begins at zero again, so pre-crash
   arrival times simply never fire; delegate rounds before the crash
   instant fire with empty reports, which tune nothing. *)
let resume_stream stream ~after =
  let surviving cursor =
    let rec next () =
      match cursor () with
      | None -> None
      | Some it -> if it.Workload.Stream.time > after then Some it else next ()
    in
    next
  in
  let total =
    let cursor = surviving (Workload.Stream.start stream) in
    let n = ref 0 in
    let rec count () =
      match cursor () with
      | None -> ()
      | Some _ ->
        incr n;
        count ()
    in
    count ();
    !n
  in
  Workload.Stream.make
    ~duration:(Workload.Stream.duration stream)
    ~total
    ~file_sets:(Workload.Stream.file_sets stream)
    ~fresh:(fun () -> surviving (Workload.Stream.start stream))
    ()

let run_kill_restart scenario spec ~stream ?(events = []) ?(obs = Obs.Ctx.null)
    ?faults ?invariant_extra ?kill_at ?arm ?decision () =
  let disk = Sharedfs.Shared_disk.create () in
  Option.iter (fun f -> f disk) arm;
  let sim_ref = ref None in
  (* Phase 1: run until the hook (or the scheduled kill) pulls the
     plug.  A run that finishes without crashing is reported as [Ran] —
     the sweep's baseline path. *)
  match
    run_stream_serial scenario spec ~stream ~events
      ~obs:(Obs.Ctx.isolated obs) ?faults ~check_invariants:true
      ?invariant_extra ~disk
      ~on_sim_created:(fun sim ->
        sim_ref := Some sim;
        match kill_at with
        | None -> ()
        | Some t ->
          ignore
            (Desim.Sim.schedule_at sim ~time:t (fun () -> raise Killed)
              : Desim.Sim.handle))
      ()
  with
  | result -> Ran result
  | exception ((Sharedfs.Shared_disk.Crashed _ | Killed) as e) ->
    (* Power loss: every server's memory is gone.  The only inputs to
       recovery are the disk image and the (host-side) knowledge of
       the workload; nothing from the dead cluster object crosses this
       line. *)
    Sharedfs.Shared_disk.clear_write_hook disk;
    let crash_op, crash_block =
      match e with
      | Sharedfs.Shared_disk.Crashed { op; block } -> (Some op, Some block)
      | _ -> (None, None)
    in
    let crashed_at =
      match !sim_ref with None -> 0.0 | Some sim -> Desim.Sim.now sim
    in
    let rep = Sharedfs.Ledger.replay disk in
    let decide =
      match decision with
      | Some f -> f
      | None -> Sharedfs.Ledger.recovered_assignment
    in
    let owned, orphaned = decide rep in
    let cluster2 = ref None in
    (* Phase 2: a fresh cluster attaches to the surviving disk —
       [Ledger.attach] inside [Cluster.create] rescans and repairs the
       log, the recovered placement is installed cold, a forced
       re-election fences the dead incarnation — then the surviving
       tail of the workload runs to completion under the invariant
       suite.  The crash consumed the fault plan; the restarted
       cluster runs it no further. *)
    let resumed =
      run_stream_serial scenario spec
        ~stream:(resume_stream stream ~after:crashed_at)
        ~events:[] ~obs:(Obs.Ctx.isolated obs) ~check_invariants:true
        ?invariant_extra ~disk
        ~restore:(owned, orphaned)
        ~on_cluster:(fun c -> cluster2 := Some c)
        ()
    in
    let cluster2 =
      match !cluster2 with Some c -> c | None -> assert false
    in
    Recovered
      {
        crashed_at;
        crash_op;
        crash_block;
        replay_records = List.length rep.Sharedfs.Ledger.records;
        replay_torn = List.length rep.Sharedfs.Ledger.torn_seqs;
        recovered_owned = List.length owned;
        recovered_orphaned = List.length orphaned;
        recovery_epoch =
          Sharedfs.Ledger.current_epoch (Sharedfs.Cluster.ledger cluster2);
        fsck = Sharedfs.Cluster.fsck ~repair:false cluster2;
        resumed;
      }

let buckets_after result ~from_ =
  List.map
    (fun (id, points) ->
      ( id,
        List.filter
          (fun p -> p.Desim.Timeseries.bucket_start >= from_)
          points ))
    result.server_series

let converged_imbalance result ~from_ =
  let per_server =
    buckets_after result ~from_
    |> List.filter_map (fun (_, points) ->
           let pairs =
             List.map
               (fun p ->
                 ( p.Desim.Timeseries.mean,
                   float_of_int p.Desim.Timeseries.count ))
               points
           in
           let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 pairs in
           if total > 0.0 then Some (Desim.Stat.weighted_mean pairs) else None)
  in
  Desim.Stat.imbalance per_server

let mean_after result ~from_ =
  let pairs =
    buckets_after result ~from_
    |> List.concat_map (fun (_, points) ->
           List.map
             (fun p ->
               (p.Desim.Timeseries.mean, float_of_int p.Desim.Timeseries.count))
             points)
  in
  Desim.Stat.weighted_mean pairs
