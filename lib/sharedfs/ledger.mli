(** The append-only write-ahead ownership ledger on the shared disk.

    Every file-set placement transition and membership change is
    recorded here before it takes effect in memory, following the
    classic intent/commit discipline: a move appends
    [Intent (Move ...)] when it is armed (before the flush), and
    [Commit (Move ...)] only once the destination has initialized the
    set.  A crash between the two leaves a pending intent that
    recovery rolls {e back} (the set is orphaned for re-placement); a
    commit is rolled {e forward} (the destination owns the set).

    Records live one per block in a reserved negative-block range of
    the {!Shared_disk} (record [seq] at block [-(seq + 16)]; blocks
    [-1 .. -15] are control blocks: the delegate lease lives at
    [-1]), so ledger traffic can never collide with metadata-store or
    move-flush blocks, which are non-negative.

    Each record is checksummed.  The fault injector can {e tear} an
    append — write a truncated prefix of the encoding, modeling a
    partial sector write at power loss.  {!replay} detects torn
    records by checksum and skips them; {!repair} rewrites them from
    the writer's in-memory mirror (or excises them with a [Noop]
    record when no mirror entry survives, i.e. after a whole-cluster
    restart).  Replay is idempotent: the log is never mutated by
    reading it. *)

type op =
  | Assign of { file_set : string; owner : int }
      (** time-zero placement of [file_set] on [owner] *)
  | Move of { file_set : string; src : int option; dst : int }
      (** movement toward [dst]; [src = None] for orphan adoption *)
  | Orphan of { file_set : string }
      (** the set lost its owner (crash, partition, interrupted move)
          and awaits re-placement *)
  | Member of { server : int; change : string }
      (** membership/fencing transition: ["join"], ["leave"],
          ["fence-cluster"], ["fence-disk"], ["heal"] *)
  | Epoch of { holder : int }
      (** the delegate lease moved to [holder] under a new epoch *)
  | Noop  (** repair tombstone for an unrecoverable torn record *)

type phase =
  | Intent  (** declared, not yet effective; rolled back by recovery *)
  | Commit  (** effective; rolled forward by recovery *)

type record = { seq : int; epoch : int; phase : phase; op : op }

(** Where replay believes one file set lives. *)
type fs_state =
  | Owned of int
  | Pending of { src : int option; dst : int }
      (** uncommitted move intent — in a live cluster this matches a
          move in flight; after a restart it rolls back to orphaned *)
  | Orphaned_fs

(** The result of scanning the log. *)
type replay = {
  records : record list;  (** every valid record, in seq order *)
  torn_seqs : int list;  (** records whose checksum failed *)
  ownership : (string * fs_state) list;  (** folded state, name-sorted *)
  max_epoch : int;  (** highest epoch seen across records *)
  next_seq : int;  (** first free slot (torn slots are occupied) *)
}

type t

(** [block_of_seq seq] is the disk block record [seq] occupies. *)
val block_of_seq : int -> int

(** The reserved control block holding the delegate lease. *)
val lease_block : int

(** [attach disk] opens a writer handle, scanning any existing log so
    appends resume at the right sequence number (the whole-cluster
    restart path) and seeding the in-memory mirror from the valid
    records found. *)
val attach : Shared_disk.t -> t

val disk : t -> Shared_disk.t

(** [appends t] counts appends attempted through this handle —
    the index {!arm_torn} targets. *)
val appends : t -> int

val next_seq : t -> int

(** [current_epoch t] is the epoch stamped on new records (updated via
    {!set_epoch} when the delegate lease moves). *)
val current_epoch : t -> int

val set_epoch : t -> int -> unit

(** [append t ?writer phase op] appends one record.  With [writer]
    set, the write goes through {!Shared_disk.write_as} and returns
    [`Fenced] (nothing written) when that server is fenced; without
    it, the write is the trusted in-process path.  Returns
    [`Appended seq] otherwise.  A torn append (armed via {!arm_torn})
    still returns [`Appended] — the writer believes the write
    completed; only the disk image is truncated. *)
val append : t -> ?writer:int -> phase -> op -> [ `Appended of int | `Fenced ]

(** [arm_torn t ~nth] tears the [nth] append (0-based, counting every
    append through this handle): only a prefix of the encoding reaches
    the disk, so the record fails its checksum on replay. *)
val arm_torn : t -> nth:int -> unit

(** [set_on_torn t f] installs a callback fired (with the record's
    seq) at the moment a torn write happens — the injector's tracing
    hook.  At most one; a second call replaces the first. *)
val set_on_torn : t -> (seq:int -> unit) -> unit

(** [torn_writes t] counts torn appends performed by this handle. *)
val torn_writes : t -> int

(** [replay disk] scans the log from seq 0 until the first absent
    block and folds placement state:
    [Commit Assign/Move] sets the owner, [Intent Move] marks the set
    pending, [Commit Orphan] orphans it.  Torn records are noted and
    skipped.  Pure read: replaying twice equals replaying once. *)
val replay : Shared_disk.t -> replay

(** [audit t] is {!replay} of [t]'s disk, memoised on the handle: the
    same result and the same {!Shared_disk.blocks_read} traffic (every
    block is still read), but a block is decoded only when its stored
    string is not physically the one this handle decoded last time,
    and an append-only change folds just the new records onto the
    retained ownership fold.  Any change to an already-audited block
    (a repair, a torn overwrite) refolds the whole log from the cached
    decodes.  The memo is allocated by the first call. *)
val audit : t -> replay

(** [decoded t] counts records decoded (checksum plus parse) by
    {!audit} and {!repair} through this handle — a deterministic work
    counter: re-auditing an unchanged log decodes nothing, and
    auditing after [k] appends decodes [k]. *)
val decoded : t -> int

(** [repair t] re-scans the log through {!audit} and rewrites every
    torn record: from the writer's mirror when the record was appended
    (or recovered at {!attach}) through this handle, with a [Noop]
    tombstone otherwise.  Returns how many blocks were rewritten. *)
val repair : t -> int

(** [recovered_assignment replay] is the restart decision:
    [(owned, orphaned)] where [owned] are the committed placements to
    roll forward and [orphaned] the sets to re-place — orphans plus
    every pending intent rolled back.  Both name-sorted. *)
val recovered_assignment : replay -> (string * int) list * string list

(** [encode r] / [decode s] are the checksummed block codec, exposed
    for tests.  [decode] returns [`Torn] on any corruption. *)
val encode : record -> string

val decode : string -> [ `Ok of record | `Torn ]

val pp_record : Format.formatter -> record -> unit
