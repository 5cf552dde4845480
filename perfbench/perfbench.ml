(* The simulator benchmark: one process runs one workload, times real
   [Runner.run_stream] calls with tracing off, and — with [--trace 1] —
   splits a run across the library layers by timing the calls into
   each layer's public functions from outside.

     perfbench.exe --workload fig6-stream --seed 42 --seconds 10 --trace 0

   The last line of standard output is one JSON object: the metrics,
   the exact simulated values the output oracle compares against
   [expected.json], and the internal consistency checks.  [run.py]
   builds this program, runs it and turns that line into the
   benchmark's result. *)

(* The GC regime every figure in README.md was measured under; the same
   as bench/main.ml.  It moves requests_per_s and peak_rss_mb, never a
   simulated value. *)
let minor_heap_words = 8 * 1024 * 1024

let space_overhead = 200

let () =
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words; space_overhead }

module Runner = Experiments.Runner
module Scenario = Experiments.Scenario
module Json = Obs.Json

let now = Desim.Clock.now_ns

let secs_between a b = Desim.Clock.span_seconds ~start:a ~stop:b

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let maximum xs = List.fold_left Float.max 0.0 xs

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* Figure 6's DFSTrace-like workload at [requests], seeded.  As in
   [Figures.dfs_stream], the mean demand shrinks as the count grows so
   offered load stays at the figure's calibrated level. *)
let dfs_stream ~seed ~requests =
  let cfg = Workload.Dfs_like.default_config in
  let factor =
    float_of_int requests /. float_of_int cfg.Workload.Dfs_like.requests
  in
  Workload.Dfs_like.stream
    {
      cfg with
      Workload.Dfs_like.requests;
      mean_demand = cfg.Workload.Dfs_like.mean_demand /. factor;
      seed;
    }

(* The paper's synthetic workload (500 sets, cubic skew) at
   [requests], seeded, offered load held constant the same way. *)
let synthetic_stream ~seed ~requests =
  let cfg = Workload.Synthetic.default_config in
  let factor =
    float_of_int requests /. float_of_int cfg.Workload.Synthetic.requests
  in
  Workload.Synthetic.stream
    {
      cfg with
      Workload.Synthetic.requests;
      mean_demand = cfg.Workload.Synthetic.mean_demand /. factor;
      seed;
    }

type workload = {
  name : string;
  scenario : Scenario.t;
  policy : Scenario.policy_spec;
  stream : requests:int -> Workload.Stream.t;
  requests : int;
  batch : bool;  (** the generator offers a column cursor *)
  faults : Fault.Plan.t option;
  check : bool;  (** invariant checks after every round *)
  light : bool;  (** delta-maintained invariant accumulators *)
  jobs : int;
  round_probe_requests : int;
      (** request count of the fault-free span-traced run that times
          the delegate rounds (round work does not depend on it) *)
}

let anu = Scenario.Anu Placement.Anu.default_config

let fig6 ~seed =
  {
    name = "fig6-stream";
    scenario = Scenario.default;
    policy = anu;
    stream = (fun ~requests -> dfs_stream ~seed ~requests);
    requests = 4_000_000;
    batch = true;
    faults = None;
    check = false;
    light = false;
    jobs = 1;
    round_probe_requests = 200_000;
  }

(* The n = 10,000 probe's workload; it reports per layer only (see
   {!n10k_probe}). *)
let scale_10k ~seed =
  let n = 10_000 in
  {
    name = "scale-10k";
    scenario = Scenario.scale_cluster ~n;
    policy =
      Scenario.Anu
        { Placement.Anu.default_config with name = Printf.sprintf "anu-n%d" n };
    stream = (fun ~requests -> dfs_stream ~seed ~requests);
    requests = 40_000;
    batch = true;
    faults = None;
    check = true;
    light = true;
    jobs = 1;
    round_probe_requests = 40_000;
  }

let workload_of_name ~seed = function
  | "fig6-stream" -> fig6 ~seed
  | "partition-chaos" ->
    let duration = Workload.Synthetic.default_config.Workload.Synthetic.duration in
    {
      name = "partition-chaos";
      scenario = Scenario.default;
      policy = anu;
      stream = (fun ~requests -> synthetic_stream ~seed ~requests);
      requests = 400_000;
      batch = false;
      faults = Some (Fault.Plan.partition_mix ~seed ~duration);
      check = true;
      light = false;
      jobs = 1;
      round_probe_requests = 100_000;
    }
  | other -> failwith ("unknown workload: " ^ other)

(* ------------------------------------------------------------------ *)
(* The stream wrapper: the benchmark's view of the workload layer      *)

(* Raised at the first pull when only set-up is being timed. *)
exception Setup_done

type meter = {
  mutable first_pull : int64;  (** 0 until the runner's first pull *)
  mutable gen_ns : int64;  (** host time inside the generator *)
  mutable pulled : int;  (** requests handed to the runner so far *)
  mutable next_mark : int;
  mutable marks : int64 list;
      (** host time each time [pulled] passed a multiple of [chunk],
          newest first *)
  chunk : int;
  timing : bool;
  abort : bool;
}

let meter ?(timing = false) ?(abort = false) ?(chunk = max_int) () =
  {
    first_pull = 0L;
    gen_ns = 0L;
    pulled = 0;
    next_mark = chunk;
    marks = [];
    chunk;
    timing;
    abort;
  }

let timed m f =
  if m.timing then begin
    let t0 = now () in
    let r = f () in
    m.gen_ns <- Int64.add m.gen_ns (Int64.sub (now ()) t0);
    r
  end
  else f ()

let on_pull m =
  if m.first_pull = 0L then begin
    m.first_pull <- now ();
    if m.abort then raise Setup_done
  end

let pulled m k =
  m.pulled <- m.pulled + k;
  if m.pulled >= m.next_mark then begin
    m.marks <- now () :: m.marks;
    m.next_mark <- m.next_mark + m.chunk
  end

(* [metered m w inner] is [inner] rebuilt with [Workload.Stream.make]
   around the generator's own [fresh]/[fresh_batch]: it stamps the
   runner's first pull and every [m.chunk]-th request pulled and, when
   [m.timing], accumulates the host time spent building and pulling
   cursors. *)
let metered m w inner =
  let fresh () =
    let c = timed m (fun () -> Workload.Stream.start inner) in
    fun () ->
      on_pull m;
      let item = timed m c in
      if Option.is_some item then pulled m 1;
      item
  in
  let fresh_batch () =
    let b =
      timed m (fun () ->
          match Workload.Stream.start_batch inner with
          | Some b -> b
          | None -> invalid_arg "metered: generator has no column cursor")
    in
    fun cols ->
      on_pull m;
      let k = timed m (fun () -> b cols) in
      pulled m k;
      k
  in
  Workload.Stream.make
    ?fresh_batch:(if w.batch then Some fresh_batch else None)
    ~duration:(Workload.Stream.duration inner)
    ~total:(Workload.Stream.total inner)
    ~file_sets:(Workload.Stream.file_sets inner)
    ~fresh ()

(* ------------------------------------------------------------------ *)
(* The round sink: host time on delegate-round spans                   *)

module Rounds = struct
  type opened = { oname : string; vtime : float; host : int64 }

  type t = {
    opened : (int, opened) Hashtbl.t;
    parent_of : (int, int) Hashtbl.t;  (** open child span -> its round *)
    child_ns : (int, int64) Hashtbl.t;  (** round -> its children's ns *)
    samples : (string, float list) Hashtbl.t;  (** name -> self ms *)
  }

  let create () =
    {
      opened = Hashtbl.create 64;
      parent_of = Hashtbl.create 64;
      child_ns = Hashtbl.create 64;
      samples = Hashtbl.create 8;
    }

  let samples t name =
    Option.value ~default:[] (Hashtbl.find_opt t.samples name)

  let record t name ns =
    Hashtbl.replace t.samples name
      ((Int64.to_float ns /. 1e6) :: samples t name)

  let take tbl key =
    let v = Hashtbl.find_opt tbl key in
    Hashtbl.remove tbl key;
    v

  (* A span counts as self time only when it opens and closes at the
     same virtual instant: a round or collection that spans virtual
     time (asynchronous collection under chaos) has unrelated events'
     host time inside it.  A round's self time is its own minus that of
     its collect/tune/apply children: invariant checks plus round
     emission. *)
  let emit t = function
    | Obs.Event.Span_begin
        {
          id;
          name = ("round" | "collect" | "tune" | "apply") as name;
          time;
          parent;
          _;
        } ->
      Hashtbl.replace t.opened id { oname = name; vtime = time; host = now () };
      if name <> "round" then Option.iter (Hashtbl.replace t.parent_of id) parent
    | Obs.Event.Span_end { id; time; _ } -> (
      match take t.opened id with
      | None -> ()
      | Some o ->
        let dur = Int64.sub (now ()) o.host in
        let zero_width = Float.equal o.vtime time in
        if o.oname = "round" then begin
          let child = Option.value ~default:0L (take t.child_ns id) in
          if zero_width then record t "round_self" (Int64.sub dur child)
        end
        else begin
          Option.iter
            (fun round ->
              let acc =
                Option.value ~default:0L (Hashtbl.find_opt t.child_ns round)
              in
              Hashtbl.replace t.child_ns round (Int64.add acc dur))
            (take t.parent_of id);
          if zero_width then record t o.oname dur
        end)
    | _ -> ()

  let sink t =
    { Obs.Sink.name = "perfbench-rounds"; emit = emit t; close = ignore }
end

(* ------------------------------------------------------------------ *)
(* Simulated outputs and the output oracle                             *)

let converged_from = 1200.0

let violation_instants r =
  List.sort_uniq Float.compare (List.map fst r.Runner.violations)

(* Rounds whose check recorded a violation: distinct violation
   instants, plus one when the post-run audit finds the ledger and the
   in-memory ownership diverging. *)
let bad_rounds r ~fsck_divergent =
  List.length (violation_instants r) + if fsck_divergent then 1 else 0

let move_digest r =
  let b = Buffer.create 4096 in
  List.iter
    (fun (m : Sharedfs.Cluster.move_record) ->
      Printf.bprintf b "%h|%s|%d|%d|%h|%h;" m.started_at m.file_set
        (match m.src with Some s -> Sharedfs.Server_id.to_int s | None -> -1)
        (Sharedfs.Server_id.to_int m.dst)
        m.flush_seconds m.init_seconds)
    r.Runner.moves;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Exact simulated values: equal across trials of one run, equal
   between the serial and sharded engines, and pinned at the committed
   seeds by expected.json.  Floats print with 17 significant digits. *)
let sim_exact r =
  let f x = Json.Str (Printf.sprintf "%.17g" x) in
  let i x = Json.Num (float_of_int x) in
  [
    ("submitted", i r.Runner.submitted);
    ("completed", i r.Runner.completed);
    ("sim_events", i r.Runner.sim_events);
    ("reconfig_rounds", i r.Runner.reconfig_rounds);
    ("mean_latency_s", f r.Runner.overall_mean);
    ("p95_latency_s", f r.Runner.overall_p95);
    ("max_latency_s", f r.Runner.overall_max);
    ("imbalance", f (Runner.converged_imbalance r ~from_:converged_from));
    ("moves", i (List.length r.Runner.moves));
    ("move_digest", Json.Str (move_digest r));
    ("violations", i (List.length r.Runner.violations));
    ("desim.peak_heap_events", i r.Runner.sim_peak_pending);
  ]

let counter snap name =
  match snap with
  | None -> 0
  | Some s ->
    Option.value ~default:0 (List.assoc_opt name s.Obs.Metrics.counters)

(* Exact per-layer counts read through the run's own cluster handle,
   before anything else touches the disk. *)
let cluster_counts c =
    let ls = Sharedfs.Cluster.lock_stats c in
    let disk = Sharedfs.Cluster.disk c in
    let acquisitions =
      ls.Sharedfs.Cluster.granted_immediately + ls.Sharedfs.Cluster.waited
    in
    [
      ( "sharedfs.lock_wait_ratio",
        if acquisitions = 0 then 0.0
        else float_of_int ls.Sharedfs.Cluster.waited /. float_of_int acquisitions
      );
      ("sharedfs.moves_started", float_of_int (Sharedfs.Cluster.moves_started c));
      ("sharedfs.moves_failed", float_of_int (Sharedfs.Cluster.moves_failed c));
      ( "sharedfs.requests_rebuffered",
        float_of_int (Sharedfs.Cluster.requests_rebuffered c) );
      ( "sharedfs.disk_blocks_written",
        float_of_int (Sharedfs.Shared_disk.blocks_written disk) );
      ( "sharedfs.disk_blocks_read",
        float_of_int (Sharedfs.Shared_disk.blocks_read disk) );
      ( "sharedfs.disk_rejected_writes",
        float_of_int (Sharedfs.Shared_disk.rejected_writes disk) );
      ( "sharedfs.ledger_records",
        float_of_int (Sharedfs.Ledger.appends (Sharedfs.Cluster.ledger c)) );
    ]

let fault_counts r =
  let snap = r.Runner.metrics in
  let c name = float_of_int (counter snap name) in
  [
    ("fault.rounds_degraded", c "rounds.degraded");
    ("fault.rounds_fenced", c "rounds.fenced");
    ("fault.reelections", c "delegate.reelections");
    ("fault.reports_lost", c "reports.lost");
    ("fault.epoch_bumps", c "fence.epoch_bump");
    ("fault.torn_repaired", c "ledger.repaired");
  ]

(* ------------------------------------------------------------------ *)
(* One run                                                             *)

type run = {
  result : Runner.result;
  wall : float;  (** host seconds of the runner call *)
  setup : float;  (** runner call to the first pull *)
  gen_s : float;  (** host seconds inside the generator (when metered) *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  counts : (string * float) list;  (** {!cluster_counts}, serial only *)
  fsck_divergent : bool;  (** the post-run ledger audit disagreed *)
  sim_fired : int option;  (** events the run's own simulator fired *)
  segments : float array;
      (** host seconds of each stretch of the run: set-up, each
          [1/chunks] of the requests pulled, and the drain after the
          last stamp; they sum to [wall].  {!trials} folds them into
          its stitched runs and drops them. *)
}

(* Stretches per run.  A slow regime of the host still has fast
   moments a millisecond or so long, so a stretch should be about that
   short: 1,000 requests on fig6-stream, 100 on partition-chaos. *)
let chunks = 4000

let run_once ?(timing = false) ?obs ?requests ?(faults = true) w =
  let requests = Option.value ~default:w.requests requests in
  let m = meter ~timing ~chunk:(Int.max 1 (requests / chunks)) () in
  let stream = metered m w (w.stream ~requests) in
  (* Construction hooks keep the serial fast path but disable the
     sharded engine, so sharded runs go without them. *)
  let cluster = ref None and sim = ref None in
  let hooks = w.jobs = 1 in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let result =
    Runner.run_stream w.scenario w.policy ~stream ?obs
      ?faults:(if faults then w.faults else None)
      ~check_invariants:w.check ~light_invariants:w.light
      ?on_sim_created:(if hooks then Some (fun s -> sim := Some s) else None)
      ?on_cluster:(if hooks then Some (fun c -> cluster := Some c) else None)
      ~jobs:w.jobs ()
  in
  let t1 = now () in
  let g1 = Gc.quick_stat () in
  (* Counts first: the audit reads the disk. *)
  let counts =
    Option.fold ~none:[] ~some:cluster_counts !cluster
  in
  let fsck_divergent =
    Option.fold ~none:false
      ~some:(fun c ->
        (Sharedfs.Cluster.fsck c).Sharedfs.Cluster.divergent <> [])
      !cluster
  in
  {
    result;
    wall = secs_between t0 t1;
    setup = (if m.first_pull = 0L then 0.0 else secs_between t0 m.first_pull);
    gen_s = Int64.to_float m.gen_ns /. 1e9;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    counts;
    fsck_divergent;
    sim_fired = Option.map Desim.Sim.events_fired !sim;
    segments =
      (let stamps =
         (if m.first_pull = 0L then [] else [ m.first_pull ]) @ List.rev m.marks
       in
       Array.of_list
         (List.map2 secs_between (t0 :: stamps) (stamps @ [ t1 ])));
  }

(* Host seconds from the runner call to the first pull, with the run
   abandoned there.  Serial engine only: the sharded one owns worker
   domains by then. *)
let setup_only w =
  let m = meter ~abort:true () in
  let stream = metered m w (w.stream ~requests:w.requests) in
  let t0 = now () in
  (try
     ignore
       (Runner.run_stream w.scenario w.policy ~stream ?faults:w.faults
          ~check_invariants:w.check ~light_invariants:w.light ()
         : Runner.result)
   with Setup_done -> ());
  if m.first_pull = 0L then failwith "setup_only: the run never pulled";
  secs_between t0 m.first_pull

(* ------------------------------------------------------------------ *)
(* Probes beside the run                                               *)

(* The generator drained alone, with nothing consuming it. *)
let drain w =
  let stream = w.stream ~requests:w.requests in
  let t0 = now () in
  let n = ref 0 in
  (match Workload.Stream.start_batch stream with
  | Some b ->
    let cols = Workload.Stream.make_cols 64 in
    let rec go () =
      let k = b cols in
      if k > 0 then begin
        n := !n + k;
        go ()
      end
    in
    go ()
  | None -> Workload.Stream.iter (fun _ -> incr n) stream);
  let s = secs_between t0 (now ()) in
  if !n <> w.requests then failwith "drain: generator yielded a wrong count";
  s

(* The scheduler with a null cluster: the same arrivals through
   [Desim.Sim.set_source] into one [Desim.Station] per server, routed
   in proportion to speed by a fixed low-discrepancy sequence — no
   placement, cache, locks or moves.  Returns host seconds minus the
   generator's own time. *)
let null_cluster w =
  let m = meter ~timing:true () in
  let stream = metered m w (w.stream ~requests:w.requests) in
  let servers = Array.of_list w.scenario.Scenario.servers in
  let t0 = now () in
  let sim = Desim.Sim.create () in
  let stations =
    Array.map
      (fun (id, speed) ->
        Desim.Station.create sim ~name:(string_of_int id) ~speed)
      servers
  in
  let completed = ref 0 in
  Array.iter
    (fun st ->
      Desim.Station.set_sink st (fun ~tag:_ ~latency:_ -> incr completed))
    stations;
  let total_speed = Array.fold_left (fun a (_, s) -> a +. s) 0.0 servers in
  let cum = Array.make (Array.length servers) 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i (_, speed) ->
      acc := !acc +. (speed /. total_speed);
      cum.(i) <- !acc)
    servers;
  let phase = ref 0.0 in
  let route () =
    phase := !phase +. 0.6180339887498949;
    if !phase >= 1.0 then phase := !phase -. 1.0;
    let u = !phase in
    let lo = ref 0 and hi = ref (Array.length cum - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) < u then lo := mid + 1 else hi := mid
    done;
    stations.(!lo)
  in
  let next = [| Float.infinity |] in
  (match Workload.Stream.start_batch stream with
  | Some b ->
    let cols = Workload.Stream.make_cols 64 in
    let idx = ref 0 and cnt = ref 0 in
    let refill () =
      cnt := b cols;
      idx := 0;
      next.(0) <-
        (if !cnt > 0 then cols.Workload.Stream.times.(0) else Float.infinity)
    in
    let fire () =
      let i = !idx in
      let demand = cols.Workload.Stream.demand.(i) in
      let tag = cols.Workload.Stream.fs.(i) in
      idx := i + 1;
      if !idx = !cnt then refill ()
      else next.(0) <- cols.Workload.Stream.times.(!idx);
      Desim.Station.submit_tagged (route ()) ~demand ~tag
    in
    refill ();
    Desim.Sim.set_source sim ~next ~fire
  | None ->
    let c = Workload.Stream.start stream in
    let pending = ref (c ()) in
    let arm () =
      next.(0) <-
        (match !pending with
        | Some it -> it.Workload.Stream.time
        | None -> Float.infinity)
    in
    let fire () =
      match !pending with
      | None -> ()
      | Some it ->
        pending := c ();
        arm ();
        Desim.Station.submit_tagged (route ())
          ~demand:it.Workload.Stream.demand ~tag:it.Workload.Stream.fs
    in
    arm ();
    Desim.Sim.set_source sim ~next ~fire);
  Desim.Sim.run sim;
  let wall = secs_between t0 (now ()) in
  if !completed <> w.requests then failwith "null_cluster: lost requests";
  wall -. (Int64.to_float m.gen_ns /. 1e9)

(* The addressing sweep of the perf snapshots: a fresh five-server ANU
   instance locating 20,000 distinct names — a host-speed canary that no
   workload's seed affects. *)
let locate_ns () =
  let lookups = 20_000 in
  let family = Hashlib.Hash_family.create ~seed:42 in
  let servers = List.init 5 Sharedfs.Server_id.of_int in
  let anu = Placement.Anu.create ~family ~servers () in
  let names = Array.init lookups (Printf.sprintf "file-set-%d") in
  let t0 = now () in
  Array.iter
    (fun name -> ignore (Placement.Anu.locate_with_rounds anu name : _ * int))
    names;
  secs_between t0 (now ()) *. 1e9 /. float_of_int lookups

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> 0.0
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
          (fun kb -> float_of_int kb /. 1024.0)
      else scan ()
  in
  let v = scan () in
  close_in ic;
  v

(* What repeats of a run, and the serial and sharded engines, must agree
   on exactly; it survives {!scalars}. *)
let engine_summary r =
  ( r.Runner.sim_events,
    r.Runner.completed,
    r.Runner.overall_mean,
    r.Runner.overall_p95,
    r.Runner.overall_max )

(* The same, plus the move records. *)
let engine_view r = (engine_summary r, move_digest r)

(* ------------------------------------------------------------------ *)
(* Measurement plans                                                   *)

type plan = { name : string; seed : int; seconds : float }

let workload p = workload_of_name ~seed:p.seed p.name

let scalars (r : Runner.result) =
  {
    r with
    Runner.server_series = [];
    per_server_mean = [];
    per_server_requests = [];
    utilizations = [];
    moves = [];
    metrics = None;
    telemetry = None;
    violations = [];
  }

(* Repeats [w] until [budget] host seconds pass, at least [min] runs; a
   full major collection before each keeps one run's garbage out of the
   next one's time.  Returns the runs, the set-up samples and the
   stitched wall time.  The set-up samples are each run's own and, where
   set-up is cheap next to a run, runs abandoned at the first pull worth
   about 5% of each run's time, so they spread over the whole
   measurement.  The stitched time is, for each stretch of the run, the
   fastest repeat, summed (see {!end_to_end}). *)
let trials ?(min = 1) w ~budget =
  let stop = Int64.add (now ()) (Int64.of_float (budget *. 1e9)) in
  let fastest = ref [||] in
  let stitch r =
    if !fastest = [||] then fastest := Array.copy r.segments
    else Array.iteri (fun i s -> !fastest.(i) <- Float.min !fastest.(i) s) r.segments
  in
  let rec go runs setups k =
    if k >= min && Int64.compare (now ()) stop >= 0 then
      (List.rev runs, setups, Array.fold_left ( +. ) 0.0 !fastest)
    else begin
      Gc.full_major ();
      let r = run_once w in
      stitch r;
      (* Keep run 0 whole for the oracle; later runs keep only their
         scalars, so retained results never grow the heap. *)
      let r = { r with segments = [||] } in
      let r = if k = 0 then r else { r with result = scalars r.result } in
      Printf.eprintf "perfbench: %s run %d (jobs %d): %.3f s, set-up %.6f s\n%!"
        w.name (k + 1) w.jobs r.wall r.setup;
      let extra =
        if w.jobs > 1 then 0
        else Int.min 50 (int_of_float (0.05 *. r.wall /. r.setup))
      in
      let aborted = List.init extra (fun _ -> setup_only w) in
      go (r :: runs) ((r.setup :: aborted) @ setups) (k + 1)
    end
  in
  go [] [] 0

(* The runner shards exactly the hook-free, fault-free, unchecked
   streaming fast path; anything else falls back to the serial engine. *)
let shardable w = w.batch && Option.is_none w.faults && not w.check

let sharded w = { w with jobs = 2 }

(* Host time per run, for the per-layer rates: the fastest run.  Shared
   hosts swing between contention regimes that last seconds to minutes
   (up to 2x apart on the 2-core host behind README.md's figures, in CPU
   time as much as wall time); a median follows the share of a
   measurement that fell in a slow regime, while the fastest run tracks
   the uncontended cost. *)
let best_wall runs = List.fold_left (fun a r -> Float.min a r.wall) infinity runs

let best_rate runs =
  List.fold_left
    (fun a r -> Float.max a (float_of_int r.result.Runner.completed /. r.wall))
    0.0 runs

(* Repeats of a run must agree exactly. *)
let repeatable runs =
  let first = engine_summary (List.hd runs).result in
  List.for_all (fun r -> engine_summary r.result = first) runs

let num x = Json.Num x

let metric name unit v =
  (name, Json.Obj [ ("value", num v); ("unit", Json.Str unit) ])

let counts_json kvs = List.map (fun (k, v) -> (k, num v)) kvs

(* Internal consistency of one run: every request completed, the run's
   own simulator fired exactly the events the result reports. *)
let consistent run =
  run.result.Runner.completed = run.result.Runner.submitted
  && Option.fold ~none:true
       ~some:(fun fired -> fired = run.result.Runner.sim_events)
       run.sim_fired

let bad_round_frac run =
  let rounds = run.result.Runner.reconfig_rounds in
  if rounds = 0 then 0.0
  else
    float_of_int (bad_rounds run.result ~fsck_divergent:run.fsck_divergent)
    /. float_of_int rounds

(* --trace 0: host time with tracing off, plus the simulated outputs
   for the oracle.  Requests per second are over the stitched run: for
   each stretch of the run, the fastest of its repeats, summed.  Repeats
   do the same work in every stretch (they pull the same requests, and
   must agree exactly), so a fast moment of the host need only cover one
   stretch, not a whole run, to count. *)
let end_to_end p =
  let runs, setups, stitched = trials (workload p) ~budget:p.seconds in
  (* The process has run only this workload so far: its runs and the
     abandoned set-ups. *)
  let peak_mb = peak_rss_mb () in
  let r0 = List.hd runs in
  let res = r0.result in
  let rate = float_of_int res.Runner.completed /. stitched in
  Printf.eprintf
    "perfbench: %d runs; fastest run %.0f requests/s, stitched %.0f requests/s\n%!"
    (List.length runs) (best_rate runs) rate;
  let metrics =
    [
      metric "requests_per_s" "1/s" rate;
      metric "setup_s" "s" (median setups);
      metric "peak_rss_mb" "MB" peak_mb;
      metric "completed_frac" "ratio"
        (float_of_int
           (List.fold_left (fun a r -> a + r.result.Runner.completed) 0 runs)
        /. float_of_int
             (List.fold_left (fun a r -> a + r.result.Runner.submitted) 0 runs));
    ]
  in
  let checks =
    [
      ("consistent", List.for_all consistent runs);
      ("deterministic", repeatable runs);
    ]
  in
  (runs, metrics, sim_exact res @ counts_json r0.counts, [], checks)

(* Simulated outputs, reported beside the layers: exact per seed, but
   they swing with the seed, so they carry no bound. *)
let sim_metrics run =
  let r = run.result in
  [
    metric "sim.mean_latency_ms" "ms" (r.Runner.overall_mean *. 1e3);
    metric "sim.p95_latency_ms" "ms" (r.Runner.overall_p95 *. 1e3);
    metric "sim.imbalance" "ratio"
      (Runner.converged_imbalance r ~from_:converged_from);
    metric "sim.moves" "count" (float_of_int (List.length r.Runner.moves));
    metric "sim.incomplete_frac" "ratio"
      (float_of_int (r.Runner.submitted - r.Runner.completed)
      /. float_of_int r.Runner.submitted);
    metric "sim.bad_round_frac" "ratio" (bad_round_frac run);
  ]

(* The reconfiguration path at n = 10,000: [scale-10k] at the caller's
   seed, once span-traced for the round layers (its request path is
   cheap, so the sink's slow path costs little) and once plain for the
   host rate, plus abandoned runs for set-up.  Its host time swings with
   the seed far past any end-to-end bound (at one seed ANU retunes in
   most rounds, at another it holds), so it reports per layer only; its
   exact values are pinned under [scale-10k] in expected.json. *)
let n10k_probe seed =
  let w = scale_10k ~seed in
  let rounds = Rounds.create () in
  let obs = Obs.Ctx.create ~sinks:[ Rounds.sink rounds ] () in
  Gc.full_major ();
  let traced = run_once ~obs ~requests:w.round_probe_requests w in
  Gc.full_major ();
  let plain = run_once w in
  let setups =
    List.init 3 (fun _ ->
        Gc.full_major ();
        setup_only w)
  in
  let ms = Rounds.samples rounds in
  let res = traced.result in
  let metrics =
    [
      metric "n10k.requests_per_s" "1/s"
        (float_of_int plain.result.Runner.completed /. plain.wall);
      metric "n10k.setup_s" "s" (median setups);
      metric "n10k.tune_ms_p50" "ms" (median (ms "tune"));
      metric "n10k.tune_ms_max" "ms" (maximum (ms "tune"));
      metric "n10k.collect_ms_p50" "ms" (median (ms "collect"));
      metric "n10k.check_ms_p50" "ms" (median (ms "round_self"));
      metric "n10k.violations" "count"
        (float_of_int (List.length res.Runner.violations));
      metric "n10k.bad_round_frac" "ratio" (bad_round_frac traced);
    ]
  in
  let checks =
    [
      ("n10k_consistent", consistent traced && consistent plain);
      ("n10k_traced_matches_untraced", sim_exact res = sim_exact plain.result);
    ]
  in
  let exact = sim_exact res @ counts_json (traced.counts @ fault_counts res) in
  ([ traced; plain ], metrics, exact, checks)

(* --trace 1: untraced bases, one traced run, and the
   probes beside it — one run's cost split across the layers. *)
let per_layer p =
  let w0 = workload p in
  let par_too = shardable w0 in
  (* Untraced bases, about half the budget; where the sharded engine
     applies, shared between it (jobs = 2) and the serial engine. *)
  let budget = if par_too then p.seconds /. 4.0 else p.seconds /. 2.0 in
  let base, _, _ = trials ~min:2 w0 ~budget in
  let par =
    if par_too then
      let par, _, _ = trials ~min:2 (sharded w0) ~budget in
      par
    else base
  in
  let locate = List.init 5 (fun _ -> locate_ns ()) in
  let rps = best_rate in
  (* The traced run: the stream wrapper, the construction hooks and,
     under faults, a metrics registry for the fault counters. *)
  let obs =
    Option.map
      (fun _ -> Obs.Ctx.create ~metrics:(Obs.Metrics.create ()) ())
      w0.faults
  in
  Gc.full_major ();
  let traced = run_once ~timing:true ?obs w0 in
  (* Delegate rounds timed in a fault-free span-traced run of the same
     workload at a reduced request count: round work does not grow with
     it, and a sink forces the per-request slow path. *)
  let rounds = Rounds.create () in
  ignore
    (run_once
       ~obs:(Obs.Ctx.create ~sinks:[ Rounds.sink rounds ] ())
       ~requests:w0.round_probe_requests ~faults:false w0
      : run);
  let drain_s = median (List.init 3 (fun _ -> drain w0)) in
  let null_s = null_cluster w0 in
  let n10k_runs, n10k_metrics, n10k_exact, n10k_checks = n10k_probe p.seed in
  let res = traced.result in
  let req = float_of_int res.Runner.submitted in
  let ms = Rounds.samples rounds in
  let sum xs = List.fold_left ( +. ) 0.0 xs in
  (* Round self time stays out of the subtraction: under a sink it is
     mostly the round event's emission, which an untraced run never
     pays. *)
  let round_s = sum (List.concat_map ms [ "collect"; "tune"; "apply" ]) /. 1e3 in
  let untraced_engine =
    median (List.map (fun r -> r.result.Runner.sim_wall_seconds) base)
  in
  let untraced_wall =
    best_wall base
  in
  let per_req f =
    median
      (List.map (fun r -> f r /. float_of_int r.result.Runner.submitted) base)
  in
  let counts = traced.counts in
  let metrics =
    [
      metric "workload.self_s" "s" traced.gen_s;
      metric "workload.ns_per_request" "ns" (traced.gen_s *. 1e9 /. req);
      metric "workload.share" "ratio" (traced.gen_s /. traced.wall);
      metric "workload.drain_s" "s" drain_s;
      metric "desim.events_per_request" "count"
        (float_of_int res.Runner.sim_events /. req);
      metric "desim.events_per_s" "1/s"
        (median
           (List.map
              (fun r ->
                float_of_int r.result.Runner.sim_events
                /. r.result.Runner.sim_wall_seconds)
              par));
      metric "desim.peak_heap_events" "count"
        (float_of_int res.Runner.sim_peak_pending);
      metric "desim.null_cluster_s" "s" null_s;
      metric "sharedfs.request_path_s" "s"
        (untraced_engine -. traced.gen_s -. null_s -. round_s);
      metric "sharedfs.collect_ms_p50" "ms" (median (ms "collect"));
    ]
    @ List.map
        (fun (k, v) ->
          metric k
            (if k = "sharedfs.lock_wait_ratio" then "ratio" else "count")
            v)
        counts
    @ [
        metric "placement.tune_ms_p50" "ms" (median (ms "tune"));
        metric "placement.tune_ms_max" "ms" (maximum (ms "tune"));
        metric "placement.apply_ms_p50" "ms" (median (ms "apply"));
        metric "placement.rounds" "count"
          (float_of_int res.Runner.reconfig_rounds);
        metric "placement.locate_ns" "ns" (median locate);
        metric "fault.check_ms_p50" "ms" (median (ms "round_self"));
        metric "fault.violations" "count"
          (float_of_int (List.length res.Runner.violations));
      ]
    @ List.map (fun (k, v) -> metric k "count" v) (fault_counts res)
    @ [
        metric "gc.minor_words_per_request" "words"
          (per_req (fun r -> r.minor_words));
        metric "gc.promoted_words_per_request" "words"
          (per_req (fun r -> r.promoted_words));
        metric "gc.major_collections" "count"
          (median (List.map (fun r -> float_of_int r.major_collections) base));
        metric "obs.traced_overhead" "ratio"
          (traced.wall /. untraced_wall);
        metric "stream_par.speedup" "ratio" (rps par /. rps base);
        metric "stream_par.serial_requests_per_s" "1/s" (rps base);
        metric "stream_par.requests_per_s" "1/s" (rps par);
      ]
    @ sim_metrics traced @ n10k_metrics
  in
  let checks =
    [
      ("consistent", List.for_all consistent (traced :: base));
      (* Tracing, hooks and the wrapper never change the simulation. *)
      ( "traced_matches_untraced",
        sim_exact res = sim_exact (List.hd base).result );
      (* Run 0 of each engine is kept whole. *)
      ( "sharded_matches_serial",
        engine_view (List.hd par).result = engine_view res );
    ]
    @ n10k_checks
  in
  let exact = sim_exact res @ counts_json (counts @ fault_counts res) in
  ( base @ (if par_too then par else []) @ n10k_runs,
    metrics,
    exact,
    [ ("scale-10k", Json.Obj n10k_exact) ],
    checks )

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let () =
  let name = ref "" and seed = ref 42 and seconds = ref 10.0 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string name, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload and fault-plan seed (42)");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure (10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let p = { name = !name; seed = !seed; seconds = !seconds } in
  let runs, metrics, exact, probe_exact, checks =
    if !trace = 0 then end_to_end p else per_layer p
  in
  let total f = List.fold_left (fun a r -> a + f r.result) 0 runs in
  let attempted = total (fun r -> r.Runner.submitted) in
  let failed = attempted - total (fun r -> r.Runner.completed) in
  Printf.printf
    "perfbench: workload %s, seed %d, %d runs, GC minor heap %d words, \
     space_overhead %d\n"
    p.name p.seed (List.length runs) minor_heap_words space_overhead;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.Str p.name);
            ("seed", num (float_of_int p.seed));
            ("attempted", num (float_of_int attempted));
            ("failed", num (float_of_int failed));
            ( "checks",
              Json.Obj (List.map (fun (k, b) -> (k, Json.Bool b)) checks) );
            ("exact", Json.Obj exact);
            ("probe_exact", Json.Obj probe_exact);
            ("metrics", Json.Obj metrics);
          ]))
