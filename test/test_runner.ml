(* Runner integration: full simulations on small workloads, membership
   events, result bookkeeping. *)

open Experiments

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_trace =
  Workload.Synthetic.generate
    {
      Workload.Synthetic.default_config with
      Workload.Synthetic.file_sets = 40;
      requests = 4_000;
      duration = 2_000.0;
    }

let scenario = Scenario.default

let test_all_policies_complete () =
  List.iter
    (fun spec ->
      let r = Runner.run scenario spec ~trace:small_trace () in
      check_int
        (Scenario.policy_name spec ^ " completes everything")
        r.Runner.submitted r.Runner.completed;
      check_bool "latencies sane" true (r.Runner.overall_mean > 0.0);
      check_int "five series" 5 (List.length r.Runner.server_series))
    [
      Scenario.Simple_random;
      Scenario.Round_robin;
      Scenario.Prescient;
      Scenario.Anu Placement.Anu.default_config;
    ]

let test_deterministic_repeat () =
  let spec = Scenario.Anu Placement.Anu.default_config in
  let a = Runner.run scenario spec ~trace:small_trace () in
  let b = Runner.run scenario spec ~trace:small_trace () in
  Alcotest.(check (float 1e-12))
    "identical means" a.Runner.overall_mean b.Runner.overall_mean;
  check_int "identical moves" (List.length a.Runner.moves)
    (List.length b.Runner.moves)

let test_static_policies_never_move () =
  List.iter
    (fun spec ->
      let r = Runner.run scenario spec ~trace:small_trace () in
      check_int "no moves" 0 (List.length r.Runner.moves))
    [ Scenario.Simple_random; Scenario.Round_robin ]

let test_reconfig_rounds_counted () =
  let r =
    Runner.run scenario (Scenario.Anu Placement.Anu.default_config)
      ~trace:small_trace ()
  in
  (* 2000 s / 120 s = 16 full intervals. *)
  check_int "rounds" 16 r.Runner.reconfig_rounds

let test_series_cover_duration () =
  let r =
    Runner.run scenario Scenario.Round_robin ~trace:small_trace ()
  in
  List.iter
    (fun (_, points) ->
      (* Buckets every 120 s covering [0, 2000]: 17 buckets. *)
      check_int "bucket count" 17 (List.length points))
    r.Runner.server_series

let test_failure_event () =
  let events =
    [
      { Runner.at = 500.0; action = Runner.Fail 4 };
    ]
  in
  let r =
    Runner.run scenario (Scenario.Anu Placement.Anu.default_config)
      ~trace:small_trace ~events ()
  in
  check_int "still completes everything" r.Runner.submitted r.Runner.completed;
  (* The failed server serves nothing after the event. *)
  let series = List.assoc 4 r.Runner.server_series in
  let late_requests =
    List.fold_left
      (fun acc p ->
        if p.Desim.Timeseries.bucket_start > 620.0 then
          acc + p.Desim.Timeseries.count
        else acc)
      0 series
  in
  check_int "dead server idle" 0 late_requests;
  (* Adoption moves with no source appear. *)
  check_bool "adoptions recorded" true
    (List.exists (fun m -> m.Sharedfs.Cluster.src = None) r.Runner.moves)

let test_failure_and_recovery_event () =
  let events =
    [
      { Runner.at = 500.0; action = Runner.Fail 3 };
      { Runner.at = 1100.0; action = Runner.Recover 3 };
    ]
  in
  let r =
    Runner.run scenario (Scenario.Anu Placement.Anu.default_config)
      ~trace:small_trace ~events ()
  in
  check_int "completes" r.Runner.submitted r.Runner.completed;
  let series = List.assoc 3 r.Runner.server_series in
  let served_after_recovery =
    List.fold_left
      (fun acc p ->
        if p.Desim.Timeseries.bucket_start >= 1200.0 then
          acc + p.Desim.Timeseries.count
        else acc)
      0 series
  in
  check_bool "recovered server serves again" true (served_after_recovery > 0)

let test_add_server_event () =
  let events = [ { Runner.at = 600.0; action = Runner.Add (9, 9.0) } ] in
  let r =
    Runner.run scenario (Scenario.Anu Placement.Anu.default_config)
      ~trace:small_trace ~events ()
  in
  check_int "completes" r.Runner.submitted r.Runner.completed;
  check_int "six series" 6 (List.length r.Runner.server_series);
  let series = List.assoc 9 r.Runner.server_series in
  let served =
    List.fold_left (fun acc p -> acc + p.Desim.Timeseries.count) 0 series
  in
  check_bool "new server takes load" true (served > 0)

(* Every run that does not observe individual requests completes
   through the station sink; [on_request_complete] forces the closure
   path.  The two must agree on everything but host time. *)
let closure_path _ ~latency:_ = ()

let same_result a b =
  { a with Runner.sim_wall_seconds = 0.0 }
  = { b with Runner.sim_wall_seconds = 0.0 }

let test_sink_equals_closure_under_membership () =
  (* Scripted membership reaches the sink path: the added server must
     get the sink too, or its first completion has nowhere to go. *)
  let events =
    [
      { Runner.at = 300.0; action = Runner.Add (9, 9.0) };
      { Runner.at = 500.0; action = Runner.Fail 2 };
      { Runner.at = 900.0; action = Runner.Recover 2 };
      { Runner.at = 1200.0; action = Runner.Decommission 1 };
    ]
  in
  let run ?on_request_complete () =
    (* Metrics ride along: the cluster's instruments count on the sink
       path exactly as on the closure path. *)
    let obs = Obs.Ctx.create ~metrics:(Obs.Metrics.create ()) () in
    Runner.run scenario (Scenario.Anu Placement.Anu.default_config)
      ~trace:small_trace ~events ~obs ?on_request_complete ()
  in
  let sink = run () in
  let closure = run ~on_request_complete:closure_path () in
  check_int "completes" sink.Runner.submitted sink.Runner.completed;
  let served =
    List.fold_left
      (fun acc p -> acc + p.Desim.Timeseries.count)
      0
      (List.assoc 9 sink.Runner.server_series)
  in
  check_bool "added server served through the sink" true (served > 0);
  check_bool "metrics collected" true
    (match sink.Runner.metrics with
    | Some snap ->
      List.assoc_opt "requests.completed" snap.Obs.Metrics.counters
      = Some sink.Runner.completed
    | None -> false);
  check_bool "sink result = closure result" true (same_result sink closure)

(* A burst of slow requests, plain and lock operations on each of ten
   file sets, landing just before servers 1 and 3 crash: every burst
   request queued at either server is interrupted and re-buffered. *)
let burst_at = 310.0

let burst_sets = List.init 10 (fun i -> Printf.sprintf "synth-%03d" i)

let burst_trace =
  let ops =
    Sharedfs.Request.
      [ Stat; Lock_acquire; Create; Lock_release; Open_file; Lock_acquire ]
  in
  let records =
    List.concat
      (List.mapi
         (fun i fs ->
           List.mapi
             (fun j op ->
               {
                 Workload.Trace.time =
                   burst_at +. (0.001 *. float_of_int ((i * 6) + j));
                 request =
                   {
                     Sharedfs.Request.op;
                     file_set = fs;
                     path_hash = i;
                     client = j;
                   };
                 demand = 40.0;
               })
             ops)
         burst_sets)
  in
  Workload.Trace.merge small_trace
    (Workload.Trace.create ~duration:2_000.0 records)

let test_sink_equals_closure_on_interrupted_requests () =
  let crashed = [ 1; 3 ] in
  let plan =
    Fault.Plan.make ~seed:7
      (List.concat_map
         (fun server ->
           [
             Fault.Plan.Crash_at { at = burst_at +. 0.5; server };
             Fault.Plan.Recover_at { at = burst_at +. 200.0; server };
           ])
         crashed)
  in
  let run ?on_request_complete () =
    let cluster = ref None and sim = ref None in
    let owners = ref [] and after_crash = ref None in
    let r =
      Runner.run scenario (Scenario.Anu Placement.Anu.default_config)
        ~trace:burst_trace ~faults:plan ?on_request_complete
        ~on_sim_created:(fun s -> sim := Some s)
        ~on_cluster:(fun c ->
          cluster := Some c;
          let sim = Option.get !sim in
          let at time f =
            ignore (Desim.Sim.schedule_at sim ~time f : Desim.Sim.handle)
          in
          (* Who holds each burst set once the burst is queued, and
             the request ledger just after the crash. *)
          at (burst_at +. 0.25) (fun () ->
              owners := List.map (Sharedfs.Cluster.owner c) burst_sets);
          at (burst_at +. 0.75) (fun () ->
              after_crash := Some (Sharedfs.Cluster.conservation c)))
        ()
    in
    let c = Option.get !cluster in
    ( r,
      Sharedfs.Cluster.requests_rebuffered c,
      !owners,
      Option.get !after_crash,
      Sharedfs.Cluster.conservation c )
  in
  let sink, sink_rebuffered, owners, sink_mid, sink_end = run () in
  let closure, closure_rebuffered, _, closure_mid, closure_end =
    run ~on_request_complete:closure_path ()
  in
  (* A registry that lost the interrupted requests would break request
     conservation at the crash's invariant sweep. *)
  Alcotest.(check (list string))
    "no violations" []
    (List.map snd sink.Runner.violations);
  (* Each burst set holds plain and lock operations; one owned by a
     crashed server had all of them queued there when it went down. *)
  check_bool "a burst set was on a crashed server" true
    (List.exists
       (function
         | Some id -> List.mem (Sharedfs.Server_id.to_int id) crashed
         | None -> false)
       owners);
  check_bool "requests were re-buffered" true (sink_rebuffered > 0);
  check_int "same re-buffered" closure_rebuffered sink_rebuffered;
  check_bool "same latency moments" true
    (sink.Runner.overall_mean = closure.Runner.overall_mean
    && sink.Runner.overall_p95 = closure.Runner.overall_p95
    && sink.Runner.overall_max = closure.Runner.overall_max);
  check_bool "same moves" true (sink.Runner.moves = closure.Runner.moves);
  check_bool "same violations" true
    (sink.Runner.violations = closure.Runner.violations);
  check_bool "same ledger after the crash" true (sink_mid = closure_mid);
  check_bool "interrupted requests are accounted" true
    (sink_mid.Sharedfs.Cluster.buffered > 0);
  check_bool "same final ledger" true (sink_end = closure_end);
  check_int "all completed" sink_end.Sharedfs.Cluster.submitted
    sink_end.Sharedfs.Cluster.completed;
  check_bool "sink result = closure result" true (same_result sink closure)

let test_set_speed_event () =
  let events = [ { Runner.at = 200.0; action = Runner.Set_speed (0, 50.0) } ] in
  let r =
    Runner.run scenario (Scenario.Anu Placement.Anu.default_config)
      ~trace:small_trace ~events ()
  in
  check_int "completes" r.Runner.submitted r.Runner.completed

let test_summary_helpers () =
  let r =
    Runner.run scenario Scenario.Round_robin ~trace:small_trace ()
  in
  let imb = Runner.converged_imbalance r ~from_:600.0 in
  check_bool "imbalance >= 1" true (imb >= 1.0);
  let m = Runner.mean_after r ~from_:600.0 in
  check_bool "mean positive" true (m > 0.0)

let test_anu_beats_static_on_heterogeneous_cluster () =
  (* The headline claim, in miniature: on a skewed workload over
     heterogeneous servers, ANU's converged latency beats round-robin
     and lands within a modest factor of prescient. *)
  let trace =
    Workload.Dfs_like.generate
      { Workload.Dfs_like.default_config with Workload.Dfs_like.requests = 30_000 }
  in
  let run spec = Runner.run scenario spec ~trace () in
  let rr = run Scenario.Round_robin in
  let anu = run (Scenario.Anu Placement.Anu.default_config) in
  let presc = run Scenario.Prescient in
  let late r = Runner.mean_after r ~from_:1800.0 in
  check_bool "anu beats round-robin after convergence" true
    (late anu < late rr);
  check_bool "anu within 5x of prescient" true
    (late anu < 5.0 *. late presc)

let suite =
  [
    Alcotest.test_case "all policies complete" `Slow test_all_policies_complete;
    Alcotest.test_case "deterministic repeat" `Slow test_deterministic_repeat;
    Alcotest.test_case "static policies never move" `Slow
      test_static_policies_never_move;
    Alcotest.test_case "reconfig rounds" `Slow test_reconfig_rounds_counted;
    Alcotest.test_case "series cover duration" `Slow test_series_cover_duration;
    Alcotest.test_case "failure event" `Slow test_failure_event;
    Alcotest.test_case "failure and recovery" `Slow test_failure_and_recovery_event;
    Alcotest.test_case "add server event" `Slow test_add_server_event;
    Alcotest.test_case "set speed event" `Slow test_set_speed_event;
    Alcotest.test_case "sink = closure under scripted membership" `Quick
      test_sink_equals_closure_under_membership;
    Alcotest.test_case "sink = closure on interrupted requests" `Quick
      test_sink_equals_closure_on_interrupted_requests;
    Alcotest.test_case "summary helpers" `Slow test_summary_helpers;
    Alcotest.test_case "anu beats static" `Slow
      test_anu_beats_static_on_heterogeneous_cluster;
  ]
