(** Named event counters with a global registry.

    Every protocol keeps a counter table exported through
    [control (Get_stat name)]; tests and benches read them to assert
    packet counts (e.g. "FRAGMENT handles 16 messages but CHANNEL and
    SELECT handle only one", section 4.2).

    Tables created with [~name] additionally register themselves in a
    process-wide registry so one {!dump} (or {!json}) call returns
    every protocol's counters at once — the observability companion to
    the paper's per-layer measurements. *)

type t

val create : ?name:string -> unit -> t
(** A fresh, empty table.  With [~name] the table is also added to the
    global registry ({!dump}, {!json}).  Protocol tables are
    conventionally named ["host/PROTO"], e.g. ["h0.0/CHANNEL"]. *)

(** {2 Interned counter handles}

    Hot paths resolve a counter once and pay one increment per event
    instead of a string hash per event.  A handle stays out of dumps
    and JSON until first touched, so pre-resolving at protocol-open
    time does not change what the table exports. *)

type counter

val counter : t -> string -> counter
(** Find-or-create the entry for [name]; the handle stays valid across
    {!reset} (which zeroes counters in place). *)

val tick : counter -> unit
(** Increment by one. *)

val bump : counter -> int -> unit
(** Increment by [n]. *)

val store : counter -> int -> unit
(** Overwrite the value: a gauge.  CHANNEL keeps its smoothed RTT and
    current RTO (in microseconds) this way. *)

val value : counter -> int

(** {2 String-keyed API} *)

val incr : t -> string -> unit

val set : t -> string -> int -> unit
(** [set t name v] overwrites the counter — a gauge; {!store} by
    name. *)

val get : t -> string -> int

val to_list : t -> (string * int) list
(** Sorted by name. *)

(* The registry. *)

val find : string -> t option
(** First registered table with that name. *)

val dump : unit -> (string * (string * int) list) list
(** Every named table with its sorted counters, in creation order
    (duplicate names possible when several worlds live in one
    process). *)

val json : unit -> Json.t
(** {!dump} as a JSON array of [{"name", "counters"}] objects. *)

val reset_registry : unit -> unit
(** Forget all registered tables (the tables themselves survive).
    Tests call this for isolation between worlds. *)

val control : t -> Control.req -> Control.reply
(** Handles [Get_stat] and [Flush_cache] (reset); [Unsupported]
    otherwise — designed to sit last in a {!Proto.control_via} chain. *)
