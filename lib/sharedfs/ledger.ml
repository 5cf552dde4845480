type op =
  | Assign of { file_set : string; owner : int }
  | Move of { file_set : string; src : int option; dst : int }
  | Orphan of { file_set : string }
  | Member of { server : int; change : string }
  | Epoch of { holder : int }
  | Noop

type phase = Intent | Commit

type record = { seq : int; epoch : int; phase : phase; op : op }

type fs_state =
  | Owned of int
  | Pending of { src : int option; dst : int }
  | Orphaned_fs

type replay = {
  records : record list;
  torn_seqs : int list;
  ownership : (string * fs_state) list;
  max_epoch : int;
  next_seq : int;
}

module Names = Map.Make (String)

(* The scan's memory of what it read: [raw.(seq)] is the block string
   last decoded for record [seq], [dec.(seq)] what it decoded to, and
   [fold] the ownership fold over every record of [last], the result
   of the last scan. *)
type memo = {
  mutable raw : string array;
  mutable dec : [ `Ok of record | `Torn ] array;
  mutable fold : fs_state Names.t;
  mutable last : replay;
  mutable decoded : int;
}

type t = {
  disk : Shared_disk.t;
  mirror : (int, record) Hashtbl.t;  (* seq -> record, for torn repair *)
  mutable next : int;
  mutable epoch : int;
  mutable append_count : int;
  mutable torn_armed : int list;  (* 0-based append indices, sorted *)
  mutable torn_done : int;
  mutable on_torn : (seq:int -> unit) option;
  mutable memo : memo option;  (* allocated by the first [audit] *)
}

(* Blocks -1 .. -15 are control blocks (the delegate lease sits at
   -1); record [seq] lives at [-(seq + 16)].  Metadata-store and
   move-flush blocks are non-negative, so the ranges never collide. *)
let base_block = 16

let block_of_seq seq = -(seq + base_block)

let lease_block = -1

(* --- codec --- *)

(* FNV-1a over the payload; 64-bit, rendered as fixed-width hex so the
   record layout is self-describing: "checksum|payload". *)
let checksum s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let check_field name s =
  if String.contains s '|' || String.contains s '\n' then
    invalid_arg (Printf.sprintf "Ledger: %s may not contain '|'" name)

let op_to_fields = function
  | Assign { file_set; owner } ->
    check_field "file set" file_set;
    [ "assign"; file_set; string_of_int owner ]
  | Move { file_set; src; dst } ->
    check_field "file set" file_set;
    [
      "move"; file_set;
      (match src with None -> "-" | Some s -> string_of_int s);
      string_of_int dst;
    ]
  | Orphan { file_set } ->
    check_field "file set" file_set;
    [ "orphan"; file_set ]
  | Member { server; change } ->
    check_field "membership change" change;
    [ "member"; string_of_int server; change ]
  | Epoch { holder } -> [ "epoch"; string_of_int holder ]
  | Noop -> [ "noop" ]

let encode r =
  let payload =
    String.concat "|"
      (string_of_int r.seq :: string_of_int r.epoch
      :: (match r.phase with Intent -> "i" | Commit -> "c")
      :: op_to_fields r.op)
  in
  Printf.sprintf "%016Lx|%s" (checksum payload) payload

let decode s =
  let ( let* ) o f = match o with Some v -> f v | None -> `Torn in
  let int_of s = int_of_string_opt s in
  if String.length s < 17 || s.[16] <> '|' then `Torn
  else
    let payload = String.sub s 17 (String.length s - 17) in
    let stored =
      try Some (Int64.of_string ("0x" ^ String.sub s 0 16))
      with Failure _ -> None
    in
    let* stored = stored in
    if not (Int64.equal stored (checksum payload)) then `Torn
    else
      match String.split_on_char '|' payload with
      | seq :: epoch :: phase :: rest -> (
        let* seq = int_of seq in
        let* epoch = int_of epoch in
        let* phase =
          match phase with "i" -> Some Intent | "c" -> Some Commit | _ -> None
        in
        let* op =
          match rest with
          | [ "assign"; file_set; owner ] ->
            Option.map (fun owner -> Assign { file_set; owner }) (int_of owner)
          | [ "move"; file_set; src; dst ] ->
            let src =
              if String.equal src "-" then Some None
              else Option.map Option.some (int_of src)
            in
            Option.bind src (fun src ->
                Option.map (fun dst -> Move { file_set; src; dst })
                  (int_of dst))
          | [ "orphan"; file_set ] -> Some (Orphan { file_set })
          | [ "member"; server; change ] ->
            Option.map (fun server -> Member { server; change })
              (int_of server)
          | [ "epoch"; holder ] ->
            Option.map (fun holder -> Epoch { holder }) (int_of holder)
          | [ "noop" ] -> Some Noop
          | _ -> None
        in
        `Ok { seq; epoch; phase; op })
      | _ -> `Torn

let pp_phase ppf = function
  | Intent -> Fmt.string ppf "intent"
  | Commit -> Fmt.string ppf "commit"

let pp_op ppf = function
  | Assign { file_set; owner } -> Fmt.pf ppf "assign %s -> s%d" file_set owner
  | Move { file_set; src; dst } ->
    Fmt.pf ppf "move %s %s -> s%d" file_set
      (match src with None -> "orphan" | Some s -> Printf.sprintf "s%d" s)
      dst
  | Orphan { file_set } -> Fmt.pf ppf "orphan %s" file_set
  | Member { server; change } -> Fmt.pf ppf "member s%d %s" server change
  | Epoch { holder } -> Fmt.pf ppf "epoch -> s%d" holder
  | Noop -> Fmt.string ppf "noop"

let pp_record ppf r =
  Fmt.pf ppf "#%d e%d %a %a" r.seq r.epoch pp_phase r.phase pp_op r.op

(* --- replay --- *)

let empty_replay =
  {
    records = [];
    torn_seqs = [];
    ownership = [];
    max_epoch = 0;
    next_seq = 0;
  }

let fresh_memo () =
  {
    raw = Array.make 64 "";
    dec = Array.make 64 `Torn;
    fold = Names.empty;
    last = empty_replay;
    decoded = 0;
  }

let fold_record own r =
  match (r.phase, r.op) with
  | Commit, Assign { file_set; owner } -> Names.add file_set (Owned owner) own
  | Intent, Move { file_set; src; dst } ->
    Names.add file_set (Pending { src; dst }) own
  | Commit, Move { file_set; src = _; dst } ->
    Names.add file_set (Owned dst) own
  | Commit, Orphan { file_set } -> Names.add file_set Orphaned_fs own
  | Intent, (Assign _ | Orphan _ | Member _ | Epoch _ | Noop)
  | Commit, (Member _ | Epoch _ | Noop) ->
    own

(* The one scan.  Every block is read through [Shared_disk.read] from
   seq 0 to the first absent block, so disk traffic never depends on
   the memo.  A block is decoded only when its string is not
   physically the one decoded last time: strings are immutable and
   every disk mutation stores a fresh one, so [==] on the stored
   string is an exact "unchanged" test.  When only new blocks appeared
   past the last scan's end, they are folded onto the retained fold;
   when any earlier block changed, the whole log is refolded from the
   (mostly cached) decodes.  An unchanged log returns the last result
   itself. *)
let scan m disk =
  let audited = m.last.next_seq in
  let rec read seq changed =
    match fst (Shared_disk.read disk ~block:(block_of_seq seq)) with
    | None -> (seq, changed)
    | Some data ->
      if seq < audited && data == m.raw.(seq) then read (seq + 1) changed
      else begin
        if seq = Array.length m.raw then begin
          m.raw <- Array.append m.raw (Array.make seq "");
          m.dec <- Array.append m.dec (Array.make seq `Torn)
        end;
        m.raw.(seq) <- data;
        m.dec.(seq) <- decode data;
        m.decoded <- m.decoded + 1;
        read (seq + 1) (changed || seq < audited)
      end
  in
  let next_seq, changed = read 0 false in
  (* Fold records [from, next_seq) onto [base] and its fold [own]. *)
  let extend base own from =
    let own = ref own and max_epoch = ref base.max_epoch in
    for seq = from to next_seq - 1 do
      match m.dec.(seq) with
      | `Ok r ->
        own := fold_record !own r;
        max_epoch := max !max_epoch r.epoch
      | `Torn -> ()
    done;
    let records = ref [] and torn = ref [] in
    for seq = next_seq - 1 downto from do
      match m.dec.(seq) with
      | `Ok r -> records := r :: !records
      | `Torn -> torn := seq :: !torn
    done;
    m.fold <- !own;
    m.last <-
      {
        records = base.records @ !records;
        torn_seqs = base.torn_seqs @ !torn;
        ownership = Names.bindings !own;
        max_epoch = !max_epoch;
        next_seq;
      };
    m.last
  in
  if changed || next_seq < audited then extend empty_replay Names.empty 0
  else if next_seq = audited then m.last
  else extend m.last m.fold audited

let replay disk = scan (fresh_memo ()) disk

let recovered_assignment rep =
  let owned, orphaned =
    List.fold_left
      (fun (owned, orphaned) (name, state) ->
        match state with
        | Owned id -> ((name, id) :: owned, orphaned)
        | Pending _ | Orphaned_fs ->
          (* Roll back: an uncommitted intent means the move never
             finished — after a restart nobody holds the set. *)
          (owned, name :: orphaned))
      ([], []) rep.ownership
  in
  (List.rev owned, List.rev orphaned)

(* --- writer handle --- *)

let attach disk =
  let rep = replay disk in
  let mirror = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.replace mirror r.seq r) rep.records;
  {
    disk;
    mirror;
    next = rep.next_seq;
    epoch = rep.max_epoch;
    append_count = 0;
    torn_armed = [];
    torn_done = 0;
    on_torn = None;
    memo = None;
  }

let disk t = t.disk

let appends t = t.append_count

let next_seq t = t.next

let current_epoch t = t.epoch

let set_epoch t e = t.epoch <- e

let arm_torn t ~nth =
  if nth < 0 then invalid_arg "Ledger.arm_torn: nth must be >= 0";
  t.torn_armed <- List.sort_uniq Int.compare (nth :: t.torn_armed)

let set_on_torn t f = t.on_torn <- Some f

let torn_writes t = t.torn_done

let append t ?writer phase op =
  let nth = t.append_count in
  t.append_count <- nth + 1;
  let seq = t.next in
  let r = { seq; epoch = t.epoch; phase; op } in
  let enc = encode r in
  let torn = List.mem nth t.torn_armed in
  let data =
    if torn then
      (* A partial sector write: only a prefix of the record survives,
         so replay's checksum rejects it. *)
      String.sub enc 0 (String.length enc / 2)
    else enc
  in
  let block = block_of_seq seq in
  let landed =
    match writer with
    | None ->
      let (_ : float) = Shared_disk.write t.disk ~block data in
      true
    | Some server -> (
      match Shared_disk.write_as t.disk ~server ~block data with
      | `Ok (_ : float) -> true
      | `Fenced -> false)
  in
  if not landed then begin
    (* Rejected at the disk: roll the handle back so the slot is not
       burned by a writer that was never allowed to write. *)
    `Fenced
  end
  else begin
    t.next <- seq + 1;
    (* The mirror records what the writer {e meant} to write — exactly
       the knowledge repair replays onto a torn block. *)
    Hashtbl.replace t.mirror seq r;
    if torn then begin
      t.torn_done <- t.torn_done + 1;
      match t.on_torn with None -> () | Some f -> f ~seq
    end;
    `Appended seq
  end

let audit t =
  let m =
    match t.memo with
    | Some m -> m
    | None ->
      let m = fresh_memo () in
      t.memo <- Some m;
      m
  in
  scan m t.disk

let decoded t = match t.memo with None -> 0 | Some m -> m.decoded

let repair t =
  let rep = audit t in
  List.fold_left
    (fun repaired seq ->
      let r =
        match Hashtbl.find_opt t.mirror seq with
        | Some r -> r
        | None ->
          (* No surviving memory of the record (torn by a previous
             incarnation): excise it with a tombstone so the log scans
             clean without inventing state. *)
          { seq; epoch = 0; phase = Commit; op = Noop }
      in
      let (_ : float) =
        Shared_disk.write t.disk ~block:(block_of_seq seq) (encode r)
      in
      repaired + 1)
    0 rep.torn_seqs
