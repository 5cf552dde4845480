(* The write-ahead ownership ledger: codec, torn-write detection,
   roll-forward/roll-back recovery, repair, and replay idempotence. *)

open Sharedfs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ops =
  [
    Ledger.Assign { file_set = "a"; owner = 0 };
    Ledger.Move { file_set = "b"; src = Some 1; dst = 2 };
    Ledger.Move { file_set = "orphan-adopt"; src = None; dst = 0 };
    Ledger.Orphan { file_set = "c" };
    Ledger.Member { server = 3; change = "fence-cluster" };
    Ledger.Epoch { holder = 1 };
    Ledger.Noop;
  ]

let test_codec_roundtrip () =
  List.iteri
    (fun i op ->
      List.iter
        (fun phase ->
          let r = { Ledger.seq = i; epoch = i * 7; phase; op } in
          match Ledger.decode (Ledger.encode r) with
          | `Ok r' -> check_bool "decode inverts encode" true (r = r')
          | `Torn ->
            Alcotest.failf "record %a decoded as torn" Ledger.pp_record r)
        [ Ledger.Intent; Ledger.Commit ])
    ops

let test_codec_rejects_corruption () =
  let r =
    {
      Ledger.seq = 4;
      epoch = 2;
      phase = Ledger.Commit;
      op = Ledger.Assign { file_set = "fs-x"; owner = 1 };
    }
  in
  let enc = Ledger.encode r in
  (* Any truncated prefix — the torn-write model — fails the checksum. *)
  for len = 0 to String.length enc - 1 do
    match Ledger.decode (String.sub enc 0 len) with
    | `Torn -> ()
    | `Ok _ -> Alcotest.failf "prefix of length %d decoded" len
  done;
  (* A flipped payload byte fails too. *)
  let flipped = Bytes.of_string enc in
  Bytes.set flipped
    (String.length enc - 1)
    (Char.chr (Char.code enc.[String.length enc - 1] lxor 1));
  check_bool "bit flip detected" true
    (Ledger.decode (Bytes.to_string flipped) = `Torn)

let test_roll_forward_and_back () =
  let disk = Shared_disk.create () in
  let t = Ledger.attach disk in
  let app phase op =
    match Ledger.append t phase op with
    | `Appended _ -> ()
    | `Fenced -> Alcotest.fail "trusted append fenced"
  in
  app Ledger.Commit (Ledger.Assign { file_set = "a"; owner = 0 });
  app Ledger.Commit (Ledger.Assign { file_set = "b"; owner = 1 });
  (* A completed move: intent then commit — rolls forward to dst. *)
  app Ledger.Intent (Ledger.Move { file_set = "a"; src = Some 0; dst = 2 });
  app Ledger.Commit (Ledger.Move { file_set = "a"; src = Some 0; dst = 2 });
  (* An interrupted move: intent only — rolls back to orphaned. *)
  app Ledger.Intent (Ledger.Move { file_set = "b"; src = Some 1; dst = 2 });
  (* An explicit orphan. *)
  app Ledger.Commit (Ledger.Assign { file_set = "c"; owner = 1 });
  app Ledger.Commit (Ledger.Orphan { file_set = "c" });
  let rep = Ledger.replay disk in
  check_int "seven records" 7 (List.length rep.Ledger.records);
  check_int "nothing torn" 0 (List.length rep.Ledger.torn_seqs);
  let owned, orphaned = Ledger.recovered_assignment rep in
  check_bool "committed move rolls forward" true
    (List.assoc_opt "a" owned = Some 2);
  check_bool "pending intent rolls back to orphaned" true
    (List.mem "b" orphaned);
  check_bool "orphaned set awaits re-placement" true (List.mem "c" orphaned);
  check_bool "orphans are not owned" true
    (List.assoc_opt "b" owned = None && List.assoc_opt "c" owned = None)

let test_attach_resumes_sequence () =
  let disk = Shared_disk.create () in
  let t1 = Ledger.attach disk in
  let app t phase op =
    match Ledger.append t phase op with
    | `Appended seq -> seq
    | `Fenced -> Alcotest.fail "trusted append fenced"
  in
  check_int "first seq" 0
    (app t1 Ledger.Commit (Ledger.Assign { file_set = "a"; owner = 0 }));
  check_int "second seq" 1
    (app t1 Ledger.Commit (Ledger.Assign { file_set = "b"; owner = 1 }));
  (* A second handle over the same disk — the whole-cluster restart —
     resumes numbering after the survivors. *)
  let t2 = Ledger.attach disk in
  check_int "restart resumes at 2" 2 (Ledger.next_seq t2);
  check_int "restarted handle appends at 2" 2
    (app t2 Ledger.Commit (Ledger.Orphan { file_set = "a" }));
  let rep = Ledger.replay disk in
  check_int "all three visible" 3 (List.length rep.Ledger.records)

let test_torn_write_detected_and_repaired () =
  let disk = Shared_disk.create () in
  let t = Ledger.attach disk in
  let seen = ref [] in
  Ledger.set_on_torn t (fun ~seq -> seen := seq :: !seen);
  Ledger.arm_torn t ~nth:1;
  let app phase op =
    match Ledger.append t phase op with
    | `Appended _ -> ()
    | `Fenced -> Alcotest.fail "trusted append fenced"
  in
  app Ledger.Commit (Ledger.Assign { file_set = "a"; owner = 0 });
  app Ledger.Commit (Ledger.Assign { file_set = "b"; owner = 1 });
  app Ledger.Commit (Ledger.Assign { file_set = "c"; owner = 2 });
  check_int "hook saw the torn seq" 1 (List.hd !seen);
  check_int "one torn write counted" 1 (Ledger.torn_writes t);
  let rep = Ledger.replay disk in
  check_bool "replay flags the torn record" true (rep.Ledger.torn_seqs = [ 1 ]);
  check_int "survivors still replay" 2 (List.length rep.Ledger.records);
  check_bool "torn slot stays occupied" true (rep.Ledger.next_seq = 3);
  (* Repair rewrites the slot from the mirror; replay then sees the
     record the writer believed it wrote. *)
  check_int "one block repaired" 1 (Ledger.repair t);
  let rep' = Ledger.replay disk in
  check_int "nothing torn after repair" 0 (List.length rep'.Ledger.torn_seqs);
  check_bool "record restored verbatim" true
    (List.exists
       (fun (r : Ledger.record) ->
         r.Ledger.seq = 1
         && r.Ledger.op = Ledger.Assign { file_set = "b"; owner = 1 })
       rep'.Ledger.records)

let test_torn_without_mirror_tombstoned () =
  (* A torn record with no surviving mirror (whole-cluster restart):
     repair excises it with a Noop tombstone rather than inventing
     state. *)
  let disk = Shared_disk.create () in
  let t1 = Ledger.attach disk in
  Ledger.arm_torn t1 ~nth:0;
  (match Ledger.append t1 Ledger.Commit (Ledger.Orphan { file_set = "z" }) with
  | `Appended _ -> ()
  | `Fenced -> Alcotest.fail "trusted append fenced");
  (* Fresh handle: attach skips the torn record, so no mirror entry. *)
  let t2 = Ledger.attach disk in
  check_int "tombstone written" 1 (Ledger.repair t2);
  let rep = Ledger.replay disk in
  check_int "log is clean" 0 (List.length rep.Ledger.torn_seqs);
  check_bool "slot holds a Noop" true
    (List.exists
       (fun (r : Ledger.record) -> r.Ledger.seq = 0 && r.Ledger.op = Ledger.Noop)
       rep.Ledger.records)

let test_fenced_writer_rejected () =
  let disk = Shared_disk.create () in
  let t = Ledger.attach disk in
  Shared_disk.fence disk ~server:3;
  check_bool "fenced writer cannot append" true
    (Ledger.append t ~writer:3 Ledger.Commit
       (Ledger.Orphan { file_set = "a" })
    = `Fenced);
  check_int "nothing reached the log" 0
    (List.length (Ledger.replay disk).Ledger.records);
  Shared_disk.unfence disk ~server:3;
  check_bool "unfenced writer appends" true
    (Ledger.append t ~writer:3 Ledger.Commit
       (Ledger.Orphan { file_set = "a" })
    <> `Fenced)

let test_block_ranges_disjoint () =
  (* Ledger blocks live strictly below the control range, which lives
     strictly below every metadata/move block (non-negative). *)
  check_bool "lease is a control block" true
    (Ledger.lease_block < 0 && Ledger.lease_block > Ledger.block_of_seq 0);
  check_bool "record blocks descend from -16" true
    (Ledger.block_of_seq 0 = -16 && Ledger.block_of_seq 7 = -23)

(* qcheck: replay is idempotent and repair converges, whatever mix of
   appends and torn slots the generator picks. *)
let arb_op =
  QCheck.Gen.(
    let name = map (Printf.sprintf "fs-%02d") (int_bound 15) in
    let server = int_bound 7 in
    oneof
      [
        map2 (fun f o -> Ledger.Assign { file_set = f; owner = o }) name server;
        map3
          (fun f s d -> Ledger.Move { file_set = f; src = Some s; dst = d })
          name server server;
        map (fun f -> Ledger.Orphan { file_set = f }) name;
        map2 (fun s c -> Ledger.Member { server = s; change = c }) server
          (oneofl [ "join"; "leave"; "heal" ]);
        map (fun h -> Ledger.Epoch { holder = h }) server;
      ])

let arb_script =
  QCheck.make
    ~print:(fun (ops, torn) ->
      Printf.sprintf "%d ops, torn=%s" (List.length ops)
        (String.concat "," (List.map string_of_int torn)))
    QCheck.Gen.(
      pair
        (list_size (int_range 1 20)
           (pair arb_op (oneofl [ Ledger.Intent; Ledger.Commit ])))
        (small_list (int_bound 19)))

let prop_replay_idempotent_and_repair_converges =
  QCheck.Test.make ~count:60
    ~name:"ledger: replay idempotent, repair converges to a clean log"
    arb_script
    (fun (script, torn) ->
      let disk = Shared_disk.create () in
      let t = Ledger.attach disk in
      List.iter (fun nth -> Ledger.arm_torn t ~nth) torn;
      List.iter
        (fun (op, phase) ->
          match Ledger.append t phase op with
          | `Appended _ -> ()
          | `Fenced -> QCheck.Test.fail_report "trusted append fenced")
        script;
      let r1 = Ledger.replay disk in
      let r2 = Ledger.replay disk in
      if r1 <> r2 then QCheck.Test.fail_report "replay mutated the log";
      let (_ : int) = Ledger.repair t in
      let r3 = Ledger.replay disk in
      if r3.Ledger.torn_seqs <> [] then
        QCheck.Test.fail_report "repair left torn records";
      if r3.Ledger.next_seq <> List.length script then
        QCheck.Test.fail_report "repair changed the log length";
      (* With a live mirror every record is restored verbatim, so the
         repaired fold equals a never-torn run's fold. *)
      let disk' = Shared_disk.create () in
      let t' = Ledger.attach disk' in
      List.iter
        (fun (op, phase) ->
          match Ledger.append t' phase op with
          | `Appended _ -> ()
          | `Fenced -> QCheck.Test.fail_report "trusted append fenced")
        script;
      let clean = Ledger.replay disk' in
      if r3.Ledger.ownership <> clean.Ledger.ownership then
        QCheck.Test.fail_report "repaired fold diverges from clean fold";
      true)

(* qcheck: repair is idempotent — once the log scans clean, a second
   pass rewrites nothing and leaves the image untouched. *)
let prop_repair_idempotent =
  QCheck.Test.make ~count:60
    ~name:"ledger: repair idempotent — second pass rewrites nothing" arb_script
    (fun (script, torn) ->
      let disk = Shared_disk.create () in
      let t = Ledger.attach disk in
      List.iter (fun nth -> Ledger.arm_torn t ~nth) torn;
      List.iter
        (fun (op, phase) ->
          match Ledger.append t phase op with
          | `Appended _ -> ()
          | `Fenced -> QCheck.Test.fail_report "trusted append fenced")
        script;
      let (_ : int) = Ledger.repair t in
      let after_first = Ledger.replay disk in
      if Ledger.repair t <> 0 then
        QCheck.Test.fail_report "second repair rewrote blocks";
      if Ledger.replay disk <> after_first then
        QCheck.Test.fail_report "second repair changed the log";
      true)

let arb_double_torn =
  QCheck.make
    ~print:(fun ((s1, s2, nth2) :
                  (Ledger.op * Ledger.phase) list
                  * (Ledger.op * Ledger.phase) list
                  * int) ->
      Printf.sprintf "%d ops (torn tail), restart, %d ops (torn at %d)"
        (List.length s1) (List.length s2) nth2)
    QCheck.Gen.(
      let script =
        list_size (int_range 1 12)
          (pair arb_op (oneofl [ Ledger.Intent; Ledger.Commit ]))
      in
      triple script script (int_bound 11))

(* qcheck: replay converges under *double* torn writes — a torn tail,
   a whole-cluster restart whose first repair can only tombstone it
   (no surviving mirror), then a second torn append through the
   restarted handle, then repair again.  The final log must scan
   clean, keep every slot occupied, and be a fixed point of repair. *)
let prop_double_torn_converges =
  QCheck.Test.make ~count:60
    ~name:"ledger: replay converges after torn tail + second torn append"
    arb_double_torn
    (fun (script1, script2, nth2) ->
      let app t script =
        List.iter
          (fun (op, phase) ->
            match Ledger.append t phase op with
            | `Appended _ -> ()
            | `Fenced -> QCheck.Test.fail_report "trusted append fenced")
          script
      in
      let disk = Shared_disk.create () in
      let t1 = Ledger.attach disk in
      (* First fault: the tail of the pre-crash log is torn. *)
      Ledger.arm_torn t1 ~nth:(List.length script1 - 1);
      app t1 script1;
      (* Whole-cluster restart: the fresh handle never saw the torn
         record, so this partial repair tombstones the tail rather
         than restoring it. *)
      let t2 = Ledger.attach disk in
      if Ledger.repair t2 <> 1 then
        QCheck.Test.fail_report "restart repair should tombstone the torn tail";
      (* Second fault: another append tears mid-flight through the
         restarted handle, which *does* hold a mirror for it. *)
      Ledger.arm_torn t2 ~nth:(min nth2 (List.length script2 - 1));
      app t2 script2;
      if Ledger.repair t2 <> 1 then
        QCheck.Test.fail_report "second repair should restore from the mirror";
      let rep = Ledger.replay disk in
      if rep.Ledger.torn_seqs <> [] then
        QCheck.Test.fail_report "double repair left torn records";
      if rep.Ledger.next_seq <> List.length script1 + List.length script2 then
        QCheck.Test.fail_report "repair changed the log length";
      if Ledger.repair t2 <> 0 then
        QCheck.Test.fail_report "repair did not reach a fixed point";
      if Ledger.replay disk <> rep then
        QCheck.Test.fail_report "replay mutated the log";
      true)

(* The memoised audit decodes only what changed: nothing for an
   unchanged log, the new records after appends, and only the
   rewritten block after an overwrite. *)
let test_decoded_counts_only_changes () =
  let disk = Shared_disk.create () in
  let t = Ledger.attach disk in
  let app name =
    match
      Ledger.append t Ledger.Commit (Ledger.Orphan { file_set = name })
    with
    | `Appended _ -> ()
    | `Fenced -> Alcotest.fail "trusted append fenced"
  in
  check_int "nothing decoded before the first audit" 0 (Ledger.decoded t);
  List.iter app [ "a"; "b"; "c" ];
  let (_ : Ledger.replay) = Ledger.audit t in
  check_int "first audit decodes the whole log" 3 (Ledger.decoded t);
  let (_ : Ledger.replay) = Ledger.audit t in
  check_int "unchanged log decodes nothing" 3 (Ledger.decoded t);
  List.iter app [ "d"; "e" ];
  let (_ : Ledger.replay) = Ledger.audit t in
  check_int "two appends decode two" 5 (Ledger.decoded t);
  let (_ : float) =
    Shared_disk.write disk ~block:(Ledger.block_of_seq 1) "torn"
  in
  let rep = Ledger.audit t in
  check_int "an overwrite decodes only that block" 6 (Ledger.decoded t);
  check_bool "the overwrite is seen" true (rep.Ledger.torn_seqs = [ 1 ]);
  check_bool "and the fold is redone" true (rep = Ledger.replay disk)

type step =
  | Append of Ledger.op * Ledger.phase
  | Torn_append of Ledger.op * Ledger.phase
  | Overwrite_torn of int * int
      (** tear an already-audited block: (slot pick, prefix pick) *)
  | Repair
  | Attach

let print_step = function
  | Append _ -> "append"
  | Torn_append _ -> "torn-append"
  | Overwrite_torn (slot, keep) -> Printf.sprintf "overwrite(%d,%d)" slot keep
  | Repair -> "repair"
  | Attach -> "attach"

let arb_steps =
  QCheck.make
    ~print:(fun steps -> String.concat "; " (List.map print_step steps))
    QCheck.Gen.(
      let phase = oneofl [ Ledger.Intent; Ledger.Commit ] in
      list_size (int_range 1 25)
        (frequency
           [
             (5, map2 (fun op ph -> Append (op, ph)) arb_op phase);
             (2, map2 (fun op ph -> Torn_append (op, ph)) arb_op phase);
             ( 2,
               map2
                 (fun slot keep -> Overwrite_torn (slot, keep))
                 (int_bound 1000) (int_bound 1000) );
             (1, return Repair);
             (1, return Attach);
           ]))

(* qcheck: the memoised audit never goes stale.  After every step of
   a random mix of appends, torn appends, torn overwrites of blocks
   already audited, repairs and fresh attaches on the same disk, every
   handle's [audit] equals [replay] of the disk image field for field
   and reads exactly as many blocks. *)
let prop_audit_matches_replay =
  QCheck.Test.make ~count:200
    ~name:"ledger: memoised audit equals replay after every disk change"
    arb_steps
    (fun steps ->
      let disk = Shared_disk.create () in
      let handles = ref [ Ledger.attach disk ] in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let check_handle i t =
        let r0 = Shared_disk.blocks_read disk in
        let a = Ledger.audit t in
        let r1 = Shared_disk.blocks_read disk in
        let p = Ledger.replay disk in
        let r2 = Shared_disk.blocks_read disk in
        if a.Ledger.records <> p.Ledger.records then
          fail "handle %d: records" i;
        if a.Ledger.torn_seqs <> p.Ledger.torn_seqs then
          fail "handle %d: torn seqs" i;
        if a.Ledger.ownership <> p.Ledger.ownership then
          fail "handle %d: ownership" i;
        if a.Ledger.max_epoch <> p.Ledger.max_epoch then
          fail "handle %d: max epoch" i;
        if a.Ledger.next_seq <> p.Ledger.next_seq then
          fail "handle %d: next seq" i;
        if r1 - r0 <> r2 - r1 then
          fail "handle %d: audit read %d blocks, replay %d" i (r1 - r0)
            (r2 - r1);
        let d = Ledger.decoded t in
        let (_ : Ledger.replay) = Ledger.audit t in
        if Ledger.decoded t <> d then fail "handle %d: re-audit decoded" i
      in
      let append t phase op =
        match Ledger.append t phase op with
        | `Appended _ -> ()
        | `Fenced -> fail "trusted append fenced"
      in
      List.iter
        (fun step ->
          let t = List.hd !handles in
          (match step with
          | Append (op, phase) -> append t phase op
          | Torn_append (op, phase) ->
            Ledger.arm_torn t ~nth:(Ledger.appends t);
            append t phase op
          | Overwrite_torn (slot, keep) -> (
            let n = (Ledger.replay disk).Ledger.next_seq in
            if n > 0 then
              let block = Ledger.block_of_seq (slot mod n) in
              match fst (Shared_disk.read disk ~block) with
              | None -> ()
              | Some data ->
                let keep =
                  if data = "" then 0 else keep mod String.length data
                in
                let (_ : float) =
                  Shared_disk.write disk ~block (String.sub data 0 keep)
                in
                ())
          | Repair -> ignore (Ledger.repair t : int)
          | Attach -> handles := Ledger.attach disk :: !handles);
          List.iteri check_handle !handles)
        steps;
      true)

let suite =
  [
    Alcotest.test_case "codec: roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec: corruption rejected" `Quick
      test_codec_rejects_corruption;
    Alcotest.test_case "recovery: roll forward and back" `Quick
      test_roll_forward_and_back;
    Alcotest.test_case "attach: restart resumes the sequence" `Quick
      test_attach_resumes_sequence;
    Alcotest.test_case "torn write: detected and repaired" `Quick
      test_torn_write_detected_and_repaired;
    Alcotest.test_case "torn write: tombstoned without a mirror" `Quick
      test_torn_without_mirror_tombstoned;
    Alcotest.test_case "fenced writer rejected" `Quick
      test_fenced_writer_rejected;
    Alcotest.test_case "block ranges disjoint" `Quick
      test_block_ranges_disjoint;
    QCheck_alcotest.to_alcotest prop_replay_idempotent_and_repair_converges;
    QCheck_alcotest.to_alcotest prop_repair_idempotent;
    QCheck_alcotest.to_alcotest prop_double_torn_converges;
    Alcotest.test_case "audit: decodes only what changed" `Quick
      test_decoded_counts_only_changes;
    QCheck_alcotest.to_alcotest prop_audit_matches_replay;
  ]
