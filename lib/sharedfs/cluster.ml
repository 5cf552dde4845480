let src_log = Logs.Src.create "sharedfs.cluster" ~doc:"cluster events"

module Log = (val Logs.src_log src_log : Logs.LOG)

type move_config = {
  flush_fixed : float;
  init_fixed : float;
  recovery_fixed : float;
  working_set_fraction : float;
}

let default_move_config =
  {
    flush_fixed = 2.0;
    init_fixed = 3.0;
    recovery_fixed = 6.0;
    working_set_fraction = 0.1;
  }

type move_record = {
  started_at : float;
  file_set : string;
  src : Server_id.t option;
  dst : Server_id.t;
  flush_seconds : float;
  init_seconds : float;
}

type buffered = {
  req : Request.t;
  fs : int;  (* interned id of req.file_set; carried so replay paths
                never re-hash the name *)
  base_demand : float;
  arrival : float;
  span : Obs.Span.id;  (* the request's root span; none when not tracing *)
  mutable bspan : Obs.Span.id;
      (* open "buffered" child while the request waits out a move or an
         orphaned set; ends (and is reset) on delivery *)
  on_complete : latency:float -> unit;
}

(* Stands in the registry for "no record": a streamed request lives in
   the registry's columns alone.  Compared physically, never read. *)
let no_buf =
  {
    req =
      { Request.op = Request.Stat; file_set = ""; path_hash = 0; client = 0 };
    fs = -1;
    base_demand = 0.0;
    arrival = 0.0;
    span = Obs.Span.none;
    bspan = Obs.Span.none;
    on_complete = (fun ~latency:_ -> ());
  }

(* The in-flight registry: one slot per request delivered to a server
   and not yet completed, and the slot index is the request's station
   tag.  Structure of arrays with a free-slot stack, like
   [Desim.Sim]'s event slots, so registering and retiring a streamed
   request allocates nothing: it lives in the columns alone.  A
   closure-path delivery (and a streamed request replayed after a move
   or a crash) keeps its full [buffered] record in [s_buf]. *)
type slots = {
  mutable s_fs : int array;
  mutable s_op : Request.op array;
  mutable s_demand : float array;
  mutable s_arrival : float array;
  mutable s_path : int array;
  mutable s_client : int array;
  mutable s_buf : buffered array;  (* [no_buf] for a streamed request *)
  mutable s_free : int array;  (* free-slot stack *)
  mutable s_free_len : int;
  mutable s_live : int;
}

type ownership =
  | Unassigned
  | Owned of Server_id.t
  | Moving of {
      src : Server_id.t option;
      dst : Server_id.t;
      pending : buffered Queue.t;
      handle : Desim.Sim.handle;
          (* the scheduled completion; cancelled when the move is
             interrupted by a crash of either endpoint *)
      flush_done_at : float;
          (* once the clock passes this, the dirty image is safely on
             the shared disk and a src crash no longer endangers it *)
      span : Obs.Span.id;
          (* the move's span: ends with outcome commit/orphan at
             completion, or interrupted when an endpoint dies *)
    }
  | Orphaned of buffered Queue.t

type ownership_state =
  | State_owned of Server_id.t
  | State_moving of { src : Server_id.t option; dst : Server_id.t;
                      buffered : int }
  | State_orphaned of { buffered : int }

type conservation = {
  submitted : int;
  completed : int;
  inflight : int;
  buffered : int;
  lock_waiting : int;
}

type link = [ `Cluster | `Disk ]

type fsck_report = {
  records : int;
  torn_found : int;
  torn_repaired : int;
  divergent : string list;
  clean : bool;
}

type lock_stats = {
  granted_immediately : int;
  waited : int;
  cancelled : int;
  leases_expired : int;
}

(* A lock acquisition that queued behind a conflicting hold: its
   completion callback is deferred until the grant. *)
type lock_waiter = { arrival : float; notify : latency:float -> unit }

(* An armed client-lease expiry.  Tracked so the parallel engine can
   migrate the timers of a moving file set onto the destination
   shard's simulator (cancel here, rearm there at the same absolute
   expiry — the event still fires exactly once). *)
type lease_timer = {
  lt_key : Lock_manager.key;
  lt_client : int;
  lt_expiry : float;
  mutable lt_sim : Desim.Sim.t;
  mutable lt_handle : Desim.Sim.handle;
}

(* Lock state partitioned by file set.  Lock keys are [{fs; ino}], so
   a single cluster-wide table is already logically partitioned by
   [fs]; materializing the partition (a) keeps each domain's tables
   tiny and (b) lets the domain-parallel engine share one [locking]
   across its per-shard clusters: a file set's lock state is touched
   only by the shard that currently serves the set, so no two domains
   ever mutate the same [lock_domain] concurrently (the engine falls
   back to lockstep execution for the rare handover windows where that
   could be violated). *)
type lock_domain = {
  lm : Lock_manager.t;
  waits : (Lock_manager.key * int, lock_waiter) Hashtbl.t;
  mutable lease_timers : lease_timer list;
}

type locking = { domains : lock_domain option array }

let locking_create ~nfs = { domains = Array.make (max 1 nfs) None }

(* Cluster-wide metric handles, resolved once at creation. *)
type instruments = {
  registry : Obs.Metrics.t;
  latency : Obs.Metrics.Histogram.h;  (* request.latency *)
  submitted : Obs.Metrics.Counter.c;
  completed_ctr : Obs.Metrics.Counter.c;
  moves : Obs.Metrics.Counter.c;
  moves_failed : Obs.Metrics.Counter.c;
  rebuffered : Obs.Metrics.Counter.c;  (* requests.rebuffered *)
}

type t = {
  sim : Desim.Sim.t;
  disk : Shared_disk.t;
  ledger : Ledger.t;
  catalog : File_set.Catalog.t;
  interner : File_set.Interner.t;
  move_cfg : move_config;
  cache_cfg : Cache.config option;
  lease_duration : float;
  delegate_lease : float;
  series_interval : float;
  topology : Topology.t;
  partitioned : (Server_id.t, link) Hashtbl.t;
  believers : (Server_id.t, int) Hashtbl.t;
      (* server -> the delegate epoch it believes it holds; a
         partitioned believer keeps its stale entry (it cannot learn of
         a newer election), which is exactly the split-brain scenario
         fencing must contain *)
  mutable zombie_attempts : int;
  mutable zombie_rejected : int;
  mutable on_torn : (seq:int -> unit) option;
  servers : (Server_id.t, Server.t) Hashtbl.t;
  mutable sorted_servers : Server.t list;
      (* cached [servers] result, rebuilt only on membership change *)
  mutable servers_by_int : Server.t option array;
      (* dense [Server_id.to_int]-indexed view, rebuilt with
         [sorted_servers], so the request path never hashes an id *)
  mutable stream_sink : (fs:int -> latency:float -> unit) option;
  clockc : float array;  (* Sim.time_cell: unboxed clock reads *)
  ownership : ownership array;  (* indexed by interned file-set id *)
  name_order : int array Lazy.t;
      (* interned ids sorted by name, for the name-sorted audits *)
  slots : slots;  (* the in-flight registry *)
  hazards : int array;
      (* per file set: live slots holding a lock operation or a
         [buffered] record, for [inflight_fs] *)
  locking : locking;  (* per-file-set lock domains; possibly shared *)
  mutable lock_stats : lock_stats;
  mutable move_log : move_record list;
  mutable moves_started : int;
  mutable moves_failed : int;
  mutable rebuffered : int;
  mutable submitted_n : int;
  mutable completed_n : int;
  mutable on_move_start :
    (file_set:string ->
    src:Server_id.t option ->
    dst:Server_id.t ->
    flush_seconds:float ->
    init_seconds:float ->
    unit)
    option;
  obs : Obs.Ctx.t;
  telemetry : Obs.Telemetry.t option;
  instruments : instruments option;
}

let rebuild_sorted_servers t =
  t.sorted_servers <-
    Hashtbl.fold (fun _ s acc -> s :: acc) t.servers []
    |> List.sort (fun a b -> Server_id.compare (Server.id a) (Server.id b));
  let max_id =
    List.fold_left
      (fun m s -> max m (Server_id.to_int (Server.id s)))
      0 t.sorted_servers
  in
  let by_int = Array.make (max_id + 1) None in
  List.iter
    (fun s -> by_int.(Server_id.to_int (Server.id s)) <- Some s)
    t.sorted_servers;
  t.servers_by_int <- by_int

let create sim ~disk ~catalog ?(move_config = default_move_config)
    ?cache_config ?(lease_duration = 30.0) ?(delegate_lease = 300.0)
    ~series_interval ~servers ?topology ?locking ?(obs = Obs.Ctx.null) () =
  if lease_duration <= 0.0 then
    invalid_arg "Cluster.create: lease_duration must be positive";
  if delegate_lease <= 0.0 then
    invalid_arg "Cluster.create: delegate_lease must be positive";
  let topology =
    match topology with
    | Some topo ->
      (* Every domain member must be a real server: a typo here would
         otherwise surface only when a domain fault fires. *)
      List.iter
        (fun id ->
          if not (List.mem_assoc id servers) then
            invalid_arg
              (Printf.sprintf
                 "Cluster.create: topology server %d is not in the cluster"
                 (Server_id.to_int id)))
        (Topology.all_servers topo);
      topo
    | None -> Topology.flat ~servers:(List.map fst servers)
  in
  let instruments =
    Option.map
      (fun m ->
        {
          registry = m;
          latency = Obs.Metrics.histogram m "request.latency";
          submitted = Obs.Metrics.counter m "requests.submitted";
          completed_ctr = Obs.Metrics.counter m "requests.completed";
          moves = Obs.Metrics.counter m "moves.started";
          moves_failed = Obs.Metrics.counter m "moves.failed";
          rebuffered = Obs.Metrics.counter m "requests.rebuffered";
        })
      (Obs.Ctx.metrics obs)
  in
  let interner = File_set.Interner.of_names (File_set.Catalog.names catalog) in
  let t =
    {
      sim;
      disk;
      ledger = Ledger.attach disk;
      catalog;
      interner;
      move_cfg = move_config;
      cache_cfg = cache_config;
      lease_duration;
      delegate_lease;
      series_interval;
      topology;
      partitioned = Hashtbl.create 8;
      believers = Hashtbl.create 8;
      zombie_attempts = 0;
      zombie_rejected = 0;
      on_torn = None;
      servers = Hashtbl.create 16;
      sorted_servers = [];
      servers_by_int = [||];
      stream_sink = None;
      ownership =
        Array.make (max 1 (File_set.Interner.size interner)) Unassigned;
      name_order =
        lazy
          (let name = File_set.Interner.name interner in
           let order = Array.init (File_set.Interner.size interner) Fun.id in
           Array.sort (fun a b -> String.compare (name a) (name b)) order;
           order);
      clockc = Desim.Sim.time_cell sim;
      slots =
        {
          s_fs = [||];
          s_op = [||];
          s_demand = [||];
          s_arrival = [||];
          s_path = [||];
          s_client = [||];
          s_buf = [||];
          s_free = [||];
          s_free_len = 0;
          s_live = 0;
        };
      hazards = Array.make (max 1 (File_set.Interner.size interner)) 0;
      locking =
        (match locking with
        | Some l -> l
        | None -> locking_create ~nfs:(File_set.Interner.size interner));
      lock_stats =
        { granted_immediately = 0; waited = 0; cancelled = 0; leases_expired = 0 };
      move_log = [];
      moves_started = 0;
      moves_failed = 0;
      rebuffered = 0;
      submitted_n = 0;
      completed_n = 0;
      on_move_start = None;
      obs;
      telemetry = Obs.Ctx.telemetry obs;
      instruments;
    }
  in
  List.iter
    (fun (id, speed) ->
      if Hashtbl.mem t.servers id then
        invalid_arg "Cluster.create: duplicate server id";
      let server =
        Server.create sim ~id ~speed ?cache_config ~series_interval ~obs ()
      in
      Hashtbl.add t.servers id server)
    servers;
  rebuild_sorted_servers t;
  (* Torn appends are observable even before anyone installs a hook:
     they count against [ledger.torn_writes] and show up in traces. *)
  Ledger.set_on_torn t.ledger (fun ~seq ->
      (match t.instruments with
      | None -> ()
      | Some i ->
        Obs.Metrics.Counter.incr
          (Obs.Metrics.counter i.registry "ledger.torn_writes"));
      match t.on_torn with None -> () | Some f -> f ~seq);
  t

let sim t = t.sim

let topology t = t.topology

let obs t = t.obs

let catalog t = t.catalog

let interner t = t.interner

let fs_id t name = File_set.Interner.id t.interner name

let fs_name t fs = File_set.Interner.name t.interner fs

let disk t = t.disk

let server t id =
  match Hashtbl.find_opt t.servers id with
  | Some s -> s
  | None ->
    invalid_arg
      (Format.asprintf "Cluster.server: unknown %a" Server_id.pp id)

let servers t = t.sorted_servers

let alive_ids t =
  List.filter_map
    (fun s -> if Server.failed s then None else Some (Server.id s))
    t.sorted_servers

let owner_fs t fs =
  match t.ownership.(fs) with
  | Owned id -> Some id
  | Moving _ | Orphaned _ | Unassigned -> None

let owner t name =
  match File_set.Interner.find t.interner name with
  | Some fs -> owner_fs t fs
  | None -> None

let owned_by t id =
  let acc = ref [] in
  Array.iteri
    (fun fs o ->
      match o with
      | Owned owner when Server_id.equal owner id ->
        acc := fs_name t fs :: !acc
      | Owned _ | Moving _ | Orphaned _ | Unassigned -> ())
    t.ownership;
  List.sort String.compare !acc

(* Rare-path counter bump: registry lookup is idempotent registration,
   fine outside the request hot path. *)
let bump ?(n = 1) t name =
  match t.instruments with
  | None -> ()
  | Some i -> Obs.Metrics.Counter.add (Obs.Metrics.counter i.registry name) n

let emit t e = if Obs.Ctx.tracing t.obs then Obs.Ctx.emit t.obs e

(* Trusted in-process append: the coordinated paths (assignment, move
   orchestration, membership) write the ledger directly and are never
   fenced — fencing applies to identified writers ([Ledger.append
   ?writer], the zombie probe path). *)
let journal t phase op =
  match Ledger.append t.ledger phase op with
  | `Appended (_ : int) -> ()
  | `Fenced -> assert false

let assign_initial t pairs =
  List.iter
    (fun (name, id) ->
      let (_ : File_set.t) = File_set.Catalog.get t.catalog name in
      let fs = fs_id t name in
      (match t.ownership.(fs) with
      | Unassigned -> ()
      | Owned _ | Moving _ | Orphaned _ ->
        invalid_arg ("Cluster.assign_initial: " ^ name ^ " assigned twice"));
      let server = server t id in
      Server.gain_file_set server ~fs ~cold:false;
      t.ownership.(fs) <- Owned id;
      journal t Ledger.Commit
        (Ledger.Assign { file_set = name; owner = Server_id.to_int id }))
    pairs

(* Whole-cluster restart: install a recovered placement into a fresh
   cluster attached to the surviving disk.  [owned] placements roll
   forward to their committed owners — with cold caches, since every
   server restarted — and must not be journaled again (the ledger
   already folds to them).  [orphaned] sets, plus every catalog set
   neither list mentions (the crash landed before their initial
   assignment reached the ledger), are parked as orphans for the
   policy to re-place; each orphan decision IS journaled as
   [Commit Orphan], because for a rolled-back pending intent the
   ledger still folds to [Pending] — the rollback is a recovery
   decision the WAL must record before {!fsck} can agree with
   memory. *)
let restore_recovered t ~owned ~orphaned =
  if Array.exists (fun o -> o <> Unassigned) t.ownership then
    invalid_arg "Cluster.restore_recovered: cluster already has assignments";
  List.iter
    (fun (name, raw) ->
      let fs = fs_id t name in
      (match t.ownership.(fs) with
      | Unassigned -> ()
      | Owned _ | Moving _ | Orphaned _ ->
        invalid_arg ("Cluster.restore_recovered: " ^ name ^ " restored twice"));
      let id = Server_id.of_int raw in
      let server = server t id in
      Server.gain_file_set server ~fs ~cold:true;
      t.ownership.(fs) <- Owned id)
    owned;
  (* Validate the explicit orphans name real sets; the sweep below
     picks them up together with the never-journaled ones. *)
  List.iter (fun name -> ignore (fs_id t name : int)) orphaned;
  let orphans = ref [] in
  Array.iteri
    (fun fs o ->
      match o with
      | Unassigned -> orphans := fs_name t fs :: !orphans
      | Owned _ | Moving _ | Orphaned _ -> ())
    t.ownership;
  let orphans = List.sort String.compare !orphans in
  List.iter
    (fun name ->
      let fs = fs_id t name in
      t.ownership.(fs) <- Orphaned (Queue.create ());
      journal t Ledger.Commit (Ledger.Orphan { file_set = name }))
    orphans;
  (List.length owned, List.length orphans)

let lock_key b =
  { Lock_manager.fs = b.fs; ino = abs b.req.Request.path_hash }

(* The lock domain of one file set, created on first lock touch (a
   workload without lock operations never allocates any). *)
let domain_of t fs =
  let ds = t.locking.domains in
  match ds.(fs) with
  | Some d -> d
  | None ->
    let d =
      {
        lm = Lock_manager.create ~size:8 ();
        waits = Hashtbl.create 8;
        lease_timers = [];
      }
    in
    ds.(fs) <- Some d;
    d

(* Fire the deferred completions of clients whose queued acquisitions
   were just granted, and start their leases. *)
let rec grant_waiters t d key granted =
  List.iter
    (fun client ->
      match Hashtbl.find_opt d.waits (key, client) with
      | None -> ()
      | Some waiter ->
        Hashtbl.remove d.waits (key, client);
        start_lease t d key client;
        waiter.notify ~latency:(Desim.Sim.now t.sim -. waiter.arrival))
    granted

(* Storage Tank's client leases: a hold not released within the lease
   is reclaimed, so no acquisition can block forever behind a client
   that never releases (or has crashed). *)
and start_lease t d key client =
  let lt =
    {
      lt_key = key;
      lt_client = client;
      lt_expiry = Desim.Sim.now t.sim +. t.lease_duration;
      lt_sim = t.sim;
      lt_handle = Desim.Sim.null_handle;
    }
  in
  d.lease_timers <- lt :: d.lease_timers;
  arm_lease t d lt

(* [t] is the cluster whose simulator hosts the timer: the original
   grantor, or — after the parallel engine migrated the file set — the
   destination shard's cluster (whose clock is the one the expiry
   latency must be read against). *)
and arm_lease t d lt =
  lt.lt_sim <- t.sim;
  lt.lt_handle <-
    Desim.Sim.schedule_at t.sim ~time:lt.lt_expiry (fun () ->
        let key = lt.lt_key and client = lt.lt_client in
        d.lease_timers <- List.filter (fun x -> x != lt) d.lease_timers;
        if List.mem_assoc client (Lock_manager.holders d.lm ~key) then begin
          t.lock_stats <-
            { t.lock_stats with leases_expired = t.lock_stats.leases_expired + 1 };
          let granted = Lock_manager.release d.lm ~key ~client in
          grant_waiters t d key granted
        end)

(* The server has finished processing the request; apply the lock
   semantics before reporting completion to the client. *)
let complete_request t b ~latency =
  let req = b.req in
  match req.Request.op with
  | Request.Lock_acquire ->
    let d = domain_of t b.fs in
    let key = lock_key b in
    let client = req.Request.client in
    if List.mem_assoc client (Lock_manager.holders d.lm ~key) then
      (* Re-acquisition of a held lock: grant immediately. *)
      b.on_complete ~latency
    else begin
      match Lock_manager.acquire d.lm ~key ~client ~mode:(Request.lock_mode req) with
      | `Granted ->
        t.lock_stats <-
          {
            t.lock_stats with
            granted_immediately = t.lock_stats.granted_immediately + 1;
          };
        start_lease t d key client;
        b.on_complete ~latency
      | `Queued ->
        t.lock_stats <- { t.lock_stats with waited = t.lock_stats.waited + 1 };
        Hashtbl.add d.waits (key, client)
          { arrival = b.arrival; notify = b.on_complete }
    end
  | Request.Lock_release ->
    let d = domain_of t b.fs in
    let key = lock_key b in
    let client = req.Request.client in
    let was_waiting = Hashtbl.find_opt d.waits (key, client) in
    let granted = Lock_manager.release d.lm ~key ~client in
    (match was_waiting with
    | Some waiter ->
      (* The release cancelled the client's own queued acquisition:
         complete it now so no caller is left hanging. *)
      Hashtbl.remove d.waits (key, client);
      t.lock_stats <-
        { t.lock_stats with cancelled = t.lock_stats.cancelled + 1 };
      waiter.notify ~latency:(Desim.Sim.now t.sim -. waiter.arrival)
    | None -> ());
    grant_waiters t d key granted;
    b.on_complete ~latency
  | Request.Open_file | Request.Close_file | Request.Stat | Request.Create
  | Request.Remove | Request.Rename | Request.Readdir | Request.Set_attr ->
    b.on_complete ~latency

(* --- the in-flight registry --- *)

let is_lock_op = function
  | Request.Lock_acquire | Request.Lock_release -> true
  | Request.Open_file | Request.Close_file | Request.Stat | Request.Create
  | Request.Remove | Request.Rename | Request.Readdir | Request.Set_attr ->
    false

let grow_slots s =
  let cap = Array.length s.s_fs in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let grow a fill =
    let n = Array.make ncap fill in
    Array.blit a 0 n 0 cap;
    n
  in
  s.s_fs <- grow s.s_fs 0;
  s.s_op <- grow s.s_op Request.Stat;
  s.s_demand <- grow s.s_demand 0.0;
  s.s_arrival <- grow s.s_arrival 0.0;
  s.s_path <- grow s.s_path 0;
  s.s_client <- grow s.s_client 0;
  s.s_buf <- grow s.s_buf no_buf;
  s.s_free <- grow s.s_free 0;
  for i = ncap - 1 downto cap do
    s.s_free.(s.s_free_len) <- i;
    s.s_free_len <- s.s_free_len + 1
  done

(* A slot counts toward [inflight_fs] when its completion can touch the
   file set's lock domain (a lock operation) or runs a per-request
   closure (a [buffered] record). *)
let hazardous s i = s.s_buf.(i) != no_buf || is_lock_op s.s_op.(i)

(* A free slot always holds [no_buf], so a streamed request writes no
   pointer (and pays no write barrier) into [s_buf]. *)
let alloc_slot t ~fs ~op ~buf =
  let s = t.slots in
  if s.s_free_len = 0 then grow_slots s;
  s.s_free_len <- s.s_free_len - 1;
  let i = s.s_free.(s.s_free_len) in
  s.s_live <- s.s_live + 1;
  s.s_fs.(i) <- fs;
  s.s_op.(i) <- op;
  if buf != no_buf then s.s_buf.(i) <- buf;
  if hazardous s i then t.hazards.(fs) <- t.hazards.(fs) + 1;
  i

let free_slot t i =
  let s = t.slots in
  if hazardous s i then t.hazards.(s.s_fs.(i)) <- t.hazards.(s.s_fs.(i)) - 1;
  if s.s_buf.(i) != no_buf then s.s_buf.(i) <- no_buf;
  s.s_free.(s.s_free_len) <- i;
  s.s_free_len <- s.s_free_len + 1;
  s.s_live <- s.s_live - 1

(* What a streamed request's completion does, whichever way it exits:
   directly from the station sink, after a lock grant, or after a
   replay behind a move or a crash. *)
let stream_done t ~fs ~latency =
  t.completed_n <- t.completed_n + 1;
  match t.stream_sink with Some k -> k ~fs ~latency | None -> assert false

let stream_record t ~fs ~op ~base_demand ~arrival ~path_hash ~client =
  {
    req = { Request.op; file_set = fs_name t fs; path_hash; client };
    fs;
    base_demand;
    arrival;
    span = Obs.Span.none;
    bspan = Obs.Span.none;
    on_complete = (fun ~latency -> stream_done t ~fs ~latency);
  }

(* The [buffered] record of a live slot: the stored one for a
   closure-path delivery, rebuilt from the columns for a streamed
   request. *)
let record_of_slot t i =
  let s = t.slots in
  let b = s.s_buf.(i) in
  if b != no_buf then b
  else
    stream_record t ~fs:s.s_fs.(i) ~op:s.s_op.(i) ~base_demand:s.s_demand.(i)
      ~arrival:s.s_arrival.(i) ~path_hash:s.s_path.(i) ~client:s.s_client.(i)

let server_at t id =
  match t.servers_by_int.(Server_id.to_int id) with
  | Some s -> s
  | None -> assert false (* owners are always members *)

let deliver t id b =
  let server = server_at t id in
  let tag = alloc_slot t ~fs:b.fs ~op:b.req.Request.op ~buf:b in
  let now = Desim.Sim.now t.sim in
  let extra_latency = now -. b.arrival in
  let sid = Server_id.to_int id in
  (* Close the buffered stage (if the request waited out a move) and
     open the queue stage; [on_start] flips queue -> service with the
     station's computed service time, so the trace splits queueing
     delay from service exactly.  All span work is behind the tracing
     branch; the [on_start] closure is only built when some observer
     (sinks or telemetry) wants it. *)
  if b.bspan <> Obs.Span.none then begin
    Obs.Span.end_ t.obs ~time:now ~id:b.bspan ~name:"buffered" ~cat:"request"
      ~server:sid ();
    b.bspan <- Obs.Span.none
  end;
  let qspan =
    Obs.Span.begin_ t.obs ~time:now ~parent:b.span ~name:"queue" ~cat:"request"
      ~server:sid ~file_set:b.req.Request.file_set ()
  in
  let sspan = ref Obs.Span.none in
  let on_start =
    if qspan = Obs.Span.none && t.telemetry = None then None
    else
      Some
        (fun ~service ->
          let started = Desim.Sim.now t.sim in
          (match t.telemetry with
          | Some tl ->
            Obs.Telemetry.observe_service tl ~time:started ~server:sid ~service
          | None -> ());
          if qspan <> Obs.Span.none then begin
            Obs.Span.end_ t.obs ~time:started ~id:qspan ~name:"queue"
              ~cat:"request" ~server:sid ();
            sspan :=
              Obs.Span.begin_ t.obs ~time:started ~parent:b.span
                ~name:"service" ~cat:"request" ~server:sid
                ~file_set:b.req.Request.file_set ()
          end)
  in
  Server.submit server ~fs:b.fs ~base_demand:b.base_demand ~tag ~extra_latency
    ?on_start b.req ~on_complete:(fun ~latency ->
      free_slot t tag;
      (match t.instruments with
      | None -> ()
      | Some i ->
        Obs.Metrics.Counter.incr i.completed_ctr;
        Obs.Metrics.Histogram.observe i.latency latency);
      let finished = Desim.Sim.now t.sim in
      (match t.telemetry with
      | Some tl ->
        Obs.Telemetry.observe_complete tl ~time:finished ~server:sid
          ~queue_depth:(Server.queue_length server) ~latency
      | None -> ());
      if Obs.Ctx.tracing t.obs then begin
        Obs.Span.end_ t.obs ~time:finished ~id:!sspan ~name:"service"
          ~cat:"request" ~server:sid ();
        Obs.Ctx.emit t.obs
          (Obs.Event.Request_complete
             {
               time = finished;
               server = sid;
               file_set = b.req.Request.file_set;
               op = Request.op_name b.req.Request.op;
               latency;
             });
        Obs.Span.end_ t.obs ~time:finished ~id:b.span ~name:"request"
          ~cat:"request" ~server:sid ()
      end;
      complete_request t b ~latency)

let submit_fs t ~fs ~base_demand req ~on_complete =
  (* Wrap the completion so the conservation counters see every exit
     path — direct completion, deferred lock grant, replay after a
     move or a crash — exactly once. *)
  let on_complete ~latency =
    t.completed_n <- t.completed_n + 1;
    on_complete ~latency
  in
  let arrival = Desim.Sim.now t.sim in
  (match t.telemetry with
  | Some tl ->
    Obs.Telemetry.observe_submit tl ~time:arrival
      ~file_set:req.Request.file_set
  | None -> ());
  let span =
    Obs.Span.begin_ t.obs ~time:arrival ~name:"request" ~cat:"request"
      ~file_set:req.Request.file_set ()
  in
  let b =
    { req; fs; base_demand; arrival; span; bspan = Obs.Span.none; on_complete }
  in
  t.submitted_n <- t.submitted_n + 1;
  (match t.instruments with
  | None -> ()
  | Some i -> Obs.Metrics.Counter.incr i.submitted);
  if Obs.Ctx.tracing t.obs then
    Obs.Ctx.emit t.obs
      (Obs.Event.Request_submit
         {
           time = b.arrival;
           file_set = req.Request.file_set;
           op = Request.op_name req.Request.op;
           client = req.Request.client;
         });
  (* A request held back by a move or an orphaned set gets an explicit
     "buffered" stage, so forensics can attribute that part of its
     latency to the move rather than to queueing. *)
  let buffer_into pending =
    b.bspan <-
      Obs.Span.begin_ t.obs ~time:arrival ~parent:span ~name:"buffered"
        ~cat:"request" ~file_set:req.Request.file_set ();
    Queue.add b pending
  in
  match t.ownership.(fs) with
  | Owned id -> deliver t id b
  | Moving { pending; _ } -> buffer_into pending
  | Orphaned pending -> buffer_into pending
  | Unassigned ->
    failwith
      ("Cluster.submit: file set never assigned: " ^ req.Request.file_set)

let submit t ~base_demand req ~on_complete =
  let name = req.Request.file_set in
  match File_set.Interner.find t.interner name with
  | Some fs -> submit_fs t ~fs ~base_demand req ~on_complete
  | None -> failwith ("Cluster.submit: file set never assigned: " ^ name)

(* --- allocation-free streaming submission ---

   A streamed request delivered to its owner takes a registry slot and
   no closure: the slot is its station tag, and the station sink frees
   the slot, then records a plain operation at once or hands a lock
   operation (rebuilt as a [buffered] record) to [complete_request] —
   the closure path's semantics exactly.  Requests arriving for a set
   that is mid-move or orphaned buffer a full [buffered] record, so
   move and crash replay use the ordinary [deliver] path unchanged
   (demand is computed at drain time against the destination's cold
   cache, exactly as the closure path does). *)

let stream_complete t ~tag ~latency =
  (match t.instruments with
  | None -> ()
  | Some i ->
    Obs.Metrics.Counter.incr i.completed_ctr;
    Obs.Metrics.Histogram.observe i.latency latency);
  let s = t.slots in
  if is_lock_op s.s_op.(tag) then begin
    let b = record_of_slot t tag in
    free_slot t tag;
    complete_request t b ~latency
  end
  else begin
    let fs = s.s_fs.(tag) in
    free_slot t tag;
    stream_done t ~fs ~latency
  end

let install_sink t s =
  Server.set_stream_sink s (fun ~tag ~latency ->
      stream_complete t ~tag ~latency)

let set_stream_sink t k =
  t.stream_sink <- Some k;
  List.iter (install_sink t) t.sorted_servers

let submit_stream t ~fs ~op ~base_demand ~path_hash ~client =
  if t.stream_sink == None then
    failwith "Cluster.submit_stream: set_stream_sink first";
  t.submitted_n <- t.submitted_n + 1;
  (match t.instruments with
  | None -> ()
  | Some i -> Obs.Metrics.Counter.incr i.submitted);
  match t.ownership.(fs) with
  | Owned id ->
    let tag = alloc_slot t ~fs ~op ~buf:no_buf in
    let s = t.slots in
    s.s_demand.(tag) <- base_demand;
    s.s_arrival.(tag) <- t.clockc.(0);
    s.s_path.(tag) <- path_hash;
    s.s_client.(tag) <- client;
    Server.submit_stream (server_at t id) ~fs ~op ~base_demand ~tag
  | Moving { pending; _ } | Orphaned pending ->
    Queue.add
      (stream_record t ~fs ~op ~base_demand ~arrival:t.clockc.(0) ~path_hash
         ~client)
      pending
  | Unassigned ->
    failwith
      ("Cluster.submit_stream: file set never assigned: " ^ fs_name t fs)

let init_seconds t fs =
  let entry = File_set.Catalog.nth t.catalog fs in
  let bytes =
    int_of_float
      (t.move_cfg.working_set_fraction
      *. float_of_int entry.File_set.metadata_bytes)
  in
  t.move_cfg.init_fixed +. Shared_disk.transfer_time t.disk ~bytes

let complete_move t ~fs ~src ~dst pending =
  let dst_server = server t dst in
  let mspan =
    match t.ownership.(fs) with Moving { span; _ } -> span | _ -> Obs.Span.none
  in
  let end_move outcome =
    Obs.Span.end_ t.obs ~time:(Desim.Sim.now t.sim) ~id:mspan ~name:"move"
      ~cat:"move" ~server:(Server_id.to_int dst) ~outcome ()
  in
  if Server.failed dst_server then begin
    (* Destination died while the set was in transit: the set is
       orphaned again and the failure handler's caller re-places it. *)
    end_move "orphan";
    t.ownership.(fs) <- Orphaned pending;
    journal t Ledger.Commit (Ledger.Orphan { file_set = fs_name t fs })
  end
  else begin
    end_move "commit";
    Server.gain_file_set dst_server ~fs ~cold:true;
    t.ownership.(fs) <- Owned dst;
    journal t Ledger.Commit
      (Ledger.Move
         {
           file_set = fs_name t fs;
           src = Option.map Server_id.to_int src;
           dst = Server_id.to_int dst;
         });
    if Obs.Ctx.tracing t.obs then
      Obs.Ctx.emit t.obs
        (Obs.Event.Move_end
           {
             time = Desim.Sim.now t.sim;
             file_set = fs_name t fs;
             dst = Server_id.to_int dst;
             replayed = Queue.length pending;
           });
    Queue.iter (fun b -> deliver t dst b) pending;
    Queue.clear pending
  end

let record_move t ~file_set ~src ~dst ~flush_seconds ~init_seconds =
  t.moves_started <- t.moves_started + 1;
  (match t.instruments with
  | None -> ()
  | Some i ->
    Obs.Metrics.Counter.incr i.moves;
    (* Moves are rare, so the registry lookup (idempotent
       registration) is fine here. *)
    Obs.Metrics.Counter.incr
      (Obs.Metrics.counter i.registry
         (Printf.sprintf "server.%d.moves_in" (Server_id.to_int dst))));
  if Obs.Ctx.tracing t.obs then
    Obs.Ctx.emit t.obs
      (Obs.Event.Move_start
         {
           time = Desim.Sim.now t.sim;
           file_set;
           src = Option.map Server_id.to_int src;
           dst = Server_id.to_int dst;
           flush_seconds;
           init_seconds;
         });
  t.move_log <-
    {
      started_at = Desim.Sim.now t.sim;
      file_set;
      src;
      dst;
      flush_seconds;
      init_seconds;
    }
    :: t.move_log

let move t ~file_set ~dst =
  let (_ : File_set.t) = File_set.Catalog.get t.catalog file_set in
  let fs = fs_id t file_set in
  let (_ : Server.t) = server t dst in
  match t.ownership.(fs) with
  | Unassigned ->
    failwith ("Cluster.move: file set never assigned: " ^ file_set)
  | Moving _ ->
    Log.debug (fun m -> m "move of %s already in flight; ignoring" file_set)
  | Owned src when Server_id.equal src dst -> ()
  | Owned src ->
    (* Write-ahead: the intent hits the shared disk before the flush
       starts, so a crash mid-move leaves an intent recovery rolls
       back. *)
    journal t Ledger.Intent
      (Ledger.Move
         {
           file_set;
           src = Some (Server_id.to_int src);
           dst = Server_id.to_int dst;
         });
    let src_server = server t src in
    let dirty = Server.shed_file_set src_server ~fs in
    (* The flush writes the dirty metadata image through the shared
       disk; a representative block write keeps the disk counters
       honest while the time accounts for the full dirty footprint. *)
    let (_ : float) =
      Shared_disk.write t.disk ~block:(fs * 1_000_000)
        (String.make (min (max dirty 1) 4096) 'm')
    in
    let flush_seconds =
      t.move_cfg.flush_fixed +. Shared_disk.transfer_time t.disk ~bytes:dirty
    in
    let init_seconds = init_seconds t fs in
    let pending = Queue.create () in
    let handle =
      Desim.Sim.schedule t.sim ~delay:(flush_seconds +. init_seconds)
        (fun () -> complete_move t ~fs ~src:(Some src) ~dst pending)
    in
    t.ownership.(fs) <-
      Moving
        {
          src = Some src;
          dst;
          pending;
          handle;
          flush_done_at = Desim.Sim.now t.sim +. flush_seconds;
          span =
            Obs.Span.begin_ t.obs ~time:(Desim.Sim.now t.sim) ~name:"move"
              ~cat:"move" ~server:(Server_id.to_int dst) ~file_set ();
        };
    record_move t ~file_set ~src:(Some src) ~dst ~flush_seconds ~init_seconds;
    Option.iter
      (fun f ->
        f ~file_set ~src:(Some src) ~dst ~flush_seconds ~init_seconds)
      t.on_move_start
  | Orphaned pending ->
    journal t Ledger.Intent
      (Ledger.Move { file_set; src = None; dst = Server_id.to_int dst });
    let init_seconds =
      t.move_cfg.recovery_fixed +. init_seconds t fs
    in
    let handle =
      Desim.Sim.schedule t.sim ~delay:init_seconds (fun () ->
          complete_move t ~fs ~src:None ~dst pending)
    in
    (* No flush phase: the image is already on the shared disk, so
       only a dst crash can interrupt the adoption. *)
    t.ownership.(fs) <-
      Moving
        {
          src = None;
          dst;
          pending;
          handle;
          flush_done_at = Desim.Sim.now t.sim;
          span =
            Obs.Span.begin_ t.obs ~time:(Desim.Sim.now t.sim) ~name:"move"
              ~cat:"move" ~server:(Server_id.to_int dst) ~file_set ();
        };
    record_move t ~file_set ~src:None ~dst ~flush_seconds:0.0 ~init_seconds;
    Option.iter
      (fun f ->
        f ~file_set ~src:None ~dst ~flush_seconds:0.0 ~init_seconds)
      t.on_move_start

(* --- cross-shard movement, for the parallel engine ---

   A move whose source and destination servers live on different
   shards is split into its two halves, each executed on the cluster
   instance that owns the respective server.  [move_out] is the source
   half of the serial [move]'s [Owned src] branch (intent journal,
   shed, flush write, flush time); [move_in] is the destination half
   (init time, the in-transit buffer, the completion event on the
   destination shard's simulator).  Both run at a synchronization
   barrier, when every shard's clock equals the round time, so the
   recorded times match the serial move exactly. *)

let move_out t ~fs ~dst =
  match t.ownership.(fs) with
  | Owned src ->
    journal t Ledger.Intent
      (Ledger.Move
         {
           file_set = fs_name t fs;
           src = Some (Server_id.to_int src);
           dst = Server_id.to_int dst;
         });
    let src_server = server t src in
    let dirty = Server.shed_file_set src_server ~fs in
    let (_ : float) =
      Shared_disk.write t.disk ~block:(fs * 1_000_000)
        (String.make (min (max dirty 1) 4096) 'm')
    in
    let flush_seconds =
      t.move_cfg.flush_fixed +. Shared_disk.transfer_time t.disk ~bytes:dirty
    in
    (* The set leaves this shard for good: no further request routes
       here (the engine flips routing at the same barrier). *)
    t.ownership.(fs) <- Unassigned;
    (src, flush_seconds)
  | Unassigned | Moving _ | Orphaned _ ->
    invalid_arg ("Cluster.move_out: set not owned here: " ^ fs_name t fs)

let move_in t ~fs ~src ~flush_seconds ~dst =
  let (_ : Server.t) = server t dst in
  (match t.ownership.(fs) with
  | Unassigned -> ()
  | Owned _ | Moving _ | Orphaned _ ->
    invalid_arg ("Cluster.move_in: set already present: " ^ fs_name t fs));
  let init_seconds = init_seconds t fs in
  let pending = Queue.create () in
  let handle =
    Desim.Sim.schedule t.sim ~delay:(flush_seconds +. init_seconds) (fun () ->
        complete_move t ~fs ~src:(Some src) ~dst pending)
  in
  t.ownership.(fs) <-
    Moving
      {
        src = Some src;
        dst;
        pending;
        handle;
        flush_done_at = Desim.Sim.now t.sim +. flush_seconds;
        span = Obs.Span.none;
      };
  init_seconds

(* Lease timers armed while the source shard owned the set must fire
   on the destination shard's simulator after the handover — at the
   same absolute expiry, with the expiry action rebuilt against the
   destination cluster — so each timer fires exactly once, at the same
   virtual time, as in the serial run. *)
let migrate_lease_timers ~src ~dst ~fs =
  match src.locking.domains.(fs) with
  | None -> ()
  | Some d ->
    List.iter
      (fun lt ->
        Desim.Sim.cancel lt.lt_sim lt.lt_handle;
        arm_lease dst d lt)
      d.lease_timers

(* In-flight requests for [fs] still at this shard's servers.  After a
   cross-shard handover their completions touch the (shared) lock
   domain from this shard, concurrently with the new owner — the
   engine detects that hazard here and falls back to lockstep until
   the residue drains. *)
let inflight_fs t ~fs = t.hazards.(fs)

(* The common half of crash and partition handling: the server stops
   serving, its sets are orphaned (journaled), its in-flight moves die,
   and its interrupted requests are re-buffered.  Callers decide what
   the event {e means} — a crash clears the server's delegate belief, a
   partition keeps it (and fences the disk). *)
let take_down t id =
  let failed_server = server t id in
  begin
    let now = Desim.Sim.now t.sim in
    let interrupted_tags = Server.fail failed_server in
    let interrupted =
      List.map
        (fun tag ->
          let b = record_of_slot t tag in
          free_slot t tag;
          b)
        interrupted_tags
      |> List.sort (fun (a : buffered) (b : buffered) ->
             Float.compare a.arrival b.arrival)
    in
    (* Orphan every file set the dead server owned, then re-buffer its
       interrupted requests behind the right orphan queues. *)
    let orphaned = ref [] in
    Array.iteri
      (fun fs o ->
        match o with
        | Owned owner when Server_id.equal owner id ->
          t.ownership.(fs) <- Orphaned (Queue.create ());
          journal t Ledger.Commit (Ledger.Orphan { file_set = fs_name t fs });
          orphaned := fs_name t fs :: !orphaned
        | Owned _ | Moving _ | Orphaned _ | Unassigned -> ())
      t.ownership;
    let orphaned = List.sort String.compare !orphaned in
    (* A crash also kills every move the server was an endpoint of: a
       dead destination can never initialize the set, and a dead
       source mid-flush leaves an incomplete image on the shared disk.
       Cancel the completion, orphan the set (keeping its buffered
       requests — recovery replays them), and report it for
       re-placement alongside the owned sets. *)
    let dead_moves = ref [] in
    Array.iteri
      (fun fs o ->
        match o with
        | Moving { src; dst; pending; handle; flush_done_at; span } ->
          let src_died =
            match src with
            | Some s -> Server_id.equal s id && now < flush_done_at
            | None -> false
          in
          if src_died then
            dead_moves :=
              (fs_name t fs, fs, pending, handle, span, "src") :: !dead_moves
          else if Server_id.equal dst id then
            dead_moves :=
              (fs_name t fs, fs, pending, handle, span, "dst") :: !dead_moves
        | Owned _ | Orphaned _ | Unassigned -> ())
      t.ownership;
    let dead_moves =
      List.sort
        (fun (a, _, _, _, _, _) (b, _, _, _, _, _) -> String.compare a b)
        !dead_moves
    in
    List.iter
      (fun (name, fs, pending, handle, span, role) ->
        Desim.Sim.cancel t.sim handle;
        Obs.Span.end_ t.obs ~time:now ~id:span ~name:"move" ~cat:"move"
          ~server:(Server_id.to_int id) ~outcome:"interrupted" ();
        t.ownership.(fs) <- Orphaned pending;
        journal t Ledger.Commit (Ledger.Orphan { file_set = name });
        t.moves_failed <- t.moves_failed + 1;
        (match t.instruments with
        | None -> ()
        | Some i -> Obs.Metrics.Counter.incr i.moves_failed);
        if Obs.Ctx.tracing t.obs then
          Obs.Ctx.emit t.obs
            (Obs.Event.Fault
               {
                 time = now;
                 server = Some (Server_id.to_int id);
                 file_set = Some name;
                 fault = Obs.Event.Move_interrupted { role };
               }))
      dead_moves;
    List.iter
      (fun b ->
        t.rebuffered <- t.rebuffered + 1;
        (match t.instruments with
        | None -> ()
        | Some i -> Obs.Metrics.Counter.incr i.rebuffered);
        match t.ownership.(b.fs) with
        | Orphaned q -> Queue.add b q
        | Moving { pending; _ } -> Queue.add b pending
        | Owned owner -> deliver t owner b
        | Unassigned -> ())
      interrupted;
    List.sort_uniq String.compare
      (orphaned @ List.map (fun (name, _, _, _, _, _) -> name) dead_moves)
  end

let fail_server t id =
  let failed_server = server t id in
  if Server.failed failed_server then
    (* Contract: failing a dead server is an explicit no-op — chaos
       schedules can double-fire without corrupting ownership. *)
    []
  else begin
    (* A crashed process forgets everything, including any belief that
       it held the delegate lease. *)
    Hashtbl.remove t.believers id;
    journal t Ledger.Commit
      (Ledger.Member { server = Server_id.to_int id; change = "leave" });
    take_down t id
  end

let link_name = function `Cluster -> "cluster" | `Disk -> "disk"

let partition_server t id ~link =
  let s = server t id in
  if Server.failed s then []
  else begin
    let now = Desim.Sim.now t.sim in
    let sid = Server_id.to_int id in
    Hashtbl.replace t.partitioned id (link : link);
    (* Fence first: from this instant the isolated server cannot touch
       the shared image, whatever it still believes about its leases
       (note [t.believers] is deliberately {e not} cleared — the
       process is alive and convinced, just contained). *)
    Shared_disk.fence t.disk ~server:sid;
    emit t (Obs.Event.Fence { time = now; server = sid; action = "fenced" });
    journal t Ledger.Commit
      (Ledger.Member
         { server = sid; change = "fence-" ^ link_name link });
    take_down t id
  end

let is_partitioned t id = Hashtbl.mem t.partitioned id

let partitioned_servers t =
  Hashtbl.fold (fun id link acc -> (id, link) :: acc) t.partitioned []
  |> List.sort (fun (a, _) (b, _) -> Server_id.compare a b)

let recover_server t id =
  let s = server t id in
  (* Contract: recovering an alive server is an explicit no-op. *)
  if Server.failed s then begin
    let sid = Server_id.to_int id in
    (match Hashtbl.find_opt t.partitioned id with
    | Some (_ : link) ->
      Hashtbl.remove t.partitioned id;
      (* Rejoining means submitting to the current epoch: the stale
         delegate belief is dropped before the fence lifts. *)
      Hashtbl.remove t.believers id;
      Shared_disk.unfence t.disk ~server:sid;
      emit t
        (Obs.Event.Fence
           { time = Desim.Sim.now t.sim; server = sid; action = "unfenced" });
      journal t Ledger.Commit (Ledger.Member { server = sid; change = "heal" })
    | None -> ());
    Server.recover s;
    journal t Ledger.Commit (Ledger.Member { server = sid; change = "join" })
  end

let heal_partition t id =
  if Hashtbl.mem t.partitioned id then begin
    recover_server t id;
    true
  end
  else false

(* --- zombie writes ---

   A partitioned server that still believes it owns metadata will keep
   trying to write.  The probe targets a reserved control block so a
   bug that lets it through corrupts nothing real — but the invariant
   checker treats any landed zombie write as a violation. *)

let zombie_probe_block = -2

let zombie_write t id =
  t.zombie_attempts <- t.zombie_attempts + 1;
  let sid = Server_id.to_int id in
  match
    Shared_disk.write_as t.disk ~server:sid ~block:zombie_probe_block "zombie"
  with
  | `Fenced ->
    t.zombie_rejected <- t.zombie_rejected + 1;
    bump t "fence.write_rejected";
    emit t
      (Obs.Event.Fence
         {
           time = Desim.Sim.now t.sim;
           server = sid;
           action = "write_rejected";
         });
    `Rejected
  | `Ok (_ : float) -> `Landed

let zombie_stats t = (t.zombie_attempts, t.zombie_rejected)

(* --- the delegate lease ---

   One epoch-numbered lease record on the shared disk, moved only by
   compare-and-swap of its raw bytes.  Election is therefore
   linearized by the disk itself: two concurrent claimants race one
   CAS, and exactly one wins the epoch. *)

let encode_lease ~epoch ~holder ~expires =
  (* %h round-trips the float exactly, keeping CAS expectations
     byte-stable. *)
  Printf.sprintf "%d|%d|%h" epoch holder expires

let decode_lease s =
  match String.split_on_char '|' s with
  | [ e; h; x ] -> (
    match
      (int_of_string_opt e, int_of_string_opt h, float_of_string_opt x)
    with
    | Some e, Some h, Some x -> Some (e, h, x)
    | _ -> None)
  | _ -> None

let read_lease t = fst (Shared_disk.read t.disk ~block:Ledger.lease_block)

let delegate_epoch t =
  match Option.bind (read_lease t) decode_lease with
  | Some (epoch, _, _) -> epoch
  | None -> 0

let delegate_believers t =
  Hashtbl.fold (fun id epoch acc -> (id, epoch) :: acc) t.believers []
  |> List.sort (fun (a, _) (b, _) -> Server_id.compare a b)

(* Claim the lease under a fresh epoch for [candidate].  [raw] is the
   CAS expectation — the lease bytes the caller just read — so a lost
   race leaves the winner's lease untouched. *)
let claim_lease t ~raw ~candidate =
  let now = Desim.Sim.now t.sim in
  let cand = Server_id.to_int candidate in
  let disk_epoch =
    match Option.bind raw decode_lease with Some (e, _, _) -> e | None -> 0
  in
  let epoch = 1 + max disk_epoch (Ledger.current_epoch t.ledger) in
  let data = encode_lease ~epoch ~holder:cand ~expires:(now +. t.delegate_lease) in
  if
    Shared_disk.compare_and_swap t.disk ~block:Ledger.lease_block ~expect:raw
      data
  then begin
    (* Connected believers learn of the new epoch and stand down;
       partitioned ones cannot — they stay stale, and stay fenced. *)
    let stale =
      Hashtbl.fold
        (fun id e acc ->
          if e < epoch && not (Hashtbl.mem t.partitioned id) then id :: acc
          else acc)
        t.believers []
    in
    List.iter (Hashtbl.remove t.believers) stale;
    Hashtbl.replace t.believers candidate epoch;
    Ledger.set_epoch t.ledger epoch;
    journal t Ledger.Commit (Ledger.Epoch { holder = cand });
    bump t "fence.epoch_bump";
    emit t
      (Obs.Event.Fence { time = now; server = cand; action = "epoch_bump" });
    epoch
  end
  else delegate_epoch t

let ensure_delegate t =
  match alive_ids t with
  | [] -> delegate_epoch t
  | candidate :: _ -> (
    let now = Desim.Sim.now t.sim in
    let raw = read_lease t in
    match Option.bind raw decode_lease with
    | Some (epoch, holder, expires)
      when holder = Server_id.to_int candidate && expires > now ->
      (* The rightful holder renews in place; the epoch is stable, so
         no believer changes and nothing is journaled. *)
      let data =
        encode_lease ~epoch ~holder ~expires:(now +. t.delegate_lease)
      in
      let (_ : bool) =
        Shared_disk.compare_and_swap t.disk ~block:Ledger.lease_block
          ~expect:raw data
      in
      Hashtbl.replace t.believers candidate epoch;
      epoch
    | Some _ | None -> claim_lease t ~raw ~candidate)

let reelect_delegate t =
  match alive_ids t with
  | [] -> delegate_epoch t
  | candidate :: _ -> claim_lease t ~raw:(read_lease t) ~candidate

let add_server t id ~speed =
  if Hashtbl.mem t.servers id then
    invalid_arg "Cluster.add_server: duplicate server id";
  let server =
    Server.create t.sim ~id ~speed ?cache_config:t.cache_cfg
      ~series_interval:t.series_interval ~obs:t.obs ()
  in
  Hashtbl.add t.servers id server;
  rebuild_sorted_servers t;
  if Option.is_some t.stream_sink then install_sink t server

let ledger t = t.ledger

let set_on_torn t f = t.on_torn <- Some f

let lock_active_keys t =
  Array.fold_left
    (fun acc d ->
      match d with None -> acc | Some d -> acc + Lock_manager.active_keys d.lm)
    0 t.locking.domains

let lock_domain_of t ~fs = (domain_of t fs).lm

let lock_stats t = t.lock_stats

let moves t = List.rev t.move_log

let moves_started t = t.moves_started

let moves_failed t = t.moves_failed

let requests_rebuffered t = t.rebuffered

let set_on_move_start t f = t.on_move_start <- Some f

let mem_server t id = Hashtbl.mem t.servers id

let pending_requests t =
  Array.fold_left
    (fun acc o ->
      match o with
      | Owned _ | Unassigned -> acc
      | Moving { pending; _ } -> acc + Queue.length pending
      | Orphaned pending -> acc + Queue.length pending)
    0 t.ownership

let ownership_states t =
  let order = Lazy.force t.name_order in
  let acc = ref [] in
  for i = Array.length order - 1 downto 0 do
    let fs = order.(i) in
    match t.ownership.(fs) with
    | Unassigned -> ()
    | Owned id -> acc := (fs_name t fs, State_owned id) :: !acc
    | Moving { src; dst; pending; _ } ->
      let buffered = Queue.length pending in
      acc := (fs_name t fs, State_moving { src; dst; buffered }) :: !acc
    | Orphaned pending ->
      let buffered = Queue.length pending in
      acc := (fs_name t fs, State_orphaned { buffered }) :: !acc
  done;
  !acc

let conservation t =
  {
    submitted = t.submitted_n;
    completed = t.completed_n;
    inflight = t.slots.s_live;
    buffered = pending_requests t;
    lock_waiting =
      Array.fold_left
        (fun acc d ->
          match d with None -> acc | Some d -> acc + Hashtbl.length d.waits)
        0 t.locking.domains;
  }

(* --- fsck: ledger-vs-memory audit --- *)

let ledger_state_str = function
  | Ledger.Owned o -> Printf.sprintf "owned by s%d" o
  | Ledger.Pending { src = None; dst } -> Printf.sprintf "pending -> s%d" dst
  | Ledger.Pending { src = Some s; dst } ->
    Printf.sprintf "pending s%d -> s%d" s dst
  | Ledger.Orphaned_fs -> "orphaned"

let memory_state_str = function
  | State_owned id -> Printf.sprintf "owned by s%d" (Server_id.to_int id)
  | State_moving { src = None; dst; _ } ->
    Printf.sprintf "pending -> s%d" (Server_id.to_int dst)
  | State_moving { src = Some s; dst; _ } ->
    Printf.sprintf "pending s%d -> s%d" (Server_id.to_int s)
      (Server_id.to_int dst)
  | State_orphaned _ -> "orphaned"

(* The structural form of comparing the two renderings above: the
   strings are built only for divergence messages. *)
let states_agree ledger_state memory_state =
  match (ledger_state, memory_state) with
  | Ledger.Owned o, State_owned id -> o = Server_id.to_int id
  | Ledger.Pending { src; dst }, State_moving { src = msrc; dst = mdst; _ }
    -> (
    dst = Server_id.to_int mdst
    &&
    match (src, msrc) with
    | None, None -> true
    | Some s, Some m -> s = Server_id.to_int m
    | None, Some _ | Some _, None -> false)
  | Ledger.Orphaned_fs, State_orphaned _ -> true
  | (Ledger.Owned _ | Ledger.Pending _ | Ledger.Orphaned_fs), _ -> false

let fsck ?(repair = true) t =
  let rep = Ledger.audit t.ledger in
  let torn_found = List.length rep.Ledger.torn_seqs in
  let torn_repaired =
    if repair && torn_found > 0 then Ledger.repair t.ledger else 0
  in
  (* Re-scan after a repair so the audit sees the healed log. *)
  let rep = if torn_repaired > 0 then Ledger.audit t.ledger else rep in
  let memory = ownership_states t in
  let divergence name ls ms =
    Printf.sprintf "%s: ledger says %s, memory says %s" name
      (match ls with Some s -> ledger_state_str s | None -> "nothing")
      (match ms with Some s -> memory_state_str s | None -> "nothing")
  in
  (* Both sides are name-sorted: a merge-join finds every file set the
     two views disagree on. *)
  let rec diff acc l m =
    match (l, m) with
    | [], [] -> List.rev acc
    | (ln, ls) :: lt, [] -> diff (divergence ln (Some ls) None :: acc) lt []
    | [], (mn, ms) :: mt -> diff (divergence mn None (Some ms) :: acc) [] mt
    | (ln, ls) :: lt, (mn, ms) :: mt ->
      let c = String.compare ln mn in
      if c < 0 then diff (divergence ln (Some ls) None :: acc) lt m
      else if c > 0 then diff (divergence mn None (Some ms) :: acc) l mt
      else if states_agree ls ms then diff acc lt mt
      else diff (divergence ln (Some ls) (Some ms) :: acc) lt mt
  in
  let divergent = diff [] rep.Ledger.ownership memory in
  let remaining_torn = List.length rep.Ledger.torn_seqs in
  bump t "ledger.replays";
  if torn_repaired > 0 then bump ~n:torn_repaired t "ledger.repaired";
  emit t
    (Obs.Event.Ledger_replay
       {
         time = Desim.Sim.now t.sim;
         records = List.length rep.Ledger.records;
         torn = torn_found;
         repaired = torn_repaired;
         divergent = List.length divergent;
       });
  {
    records = List.length rep.Ledger.records;
    torn_found;
    torn_repaired;
    divergent;
    clean = remaining_torn = 0 && divergent = [];
  }
