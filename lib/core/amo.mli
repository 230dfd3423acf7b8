(** AMO — Sprite RPC's at-most-once rule, the one copy CHANNEL and M.RPC
    follow (DESIGN.md §3.3.1 has it as a table).  Pure: sequence numbers
    and boot ids only, no messages, timers or costs; each protocol keeps
    its own headers, charges and counters and asks AMO at its decision
    points.  Every transition returns a constant constructor, so no call
    allocates.

    A channel executes one request at a time.  A newer request (higher
    sequence number or new client boot) arriving during an execution is
    held: dropped, to come back with its retransmission.  A reply
    carries the sequence number of the request whose execution produced
    it, and is discarded if a newer request or client boot arrived
    during that execution.  Boot ids only grow, and each client boot
    numbers its calls from its own base, so nothing from an earlier
    incarnation of either side matches a later one. *)

(** {1 Server: one per channel} *)

type server = {
  mutable client_boot : int;  (** the newest client boot heard; 0: none *)
  mutable last_seq : int;  (** the request executed or executing last *)
  mutable exec_boot : int;  (** 0 once the execution is superseded *)
  mutable exec_seq : int;  (** the executing request; 0: none *)
  mutable cached : bool;  (** the reply to [last_seq] is cached *)
}

type action =
  | Execute  (** a new request: start it with {!execute} *)
  | Resend_cached  (** a duplicate of the last request: resend its reply *)
  | Ack  (** a duplicate of the executing request: acknowledge it *)
  | Hold  (** a newer request during an execution: drop it *)
  | Drop_stale  (** an old request, or a duplicate with nothing to send *)
  | Send_reply  (** the reply: send it stamped [last_seq], and cache it *)
  | Discard_late  (** a reply no request waits for: send nothing *)

val server : unit -> server

val request : server -> boot:int -> seq:int -> action
(** A request, or a fragment of one, arrived: one of the first five. *)

val execute : server -> seq:int -> unit
(** Starts the request {!request} has just answered [Execute] for, with
    nothing between (M.RPC calls it on the last fragment). *)

val reply : server -> action
(** The upper layer answered: [Send_reply] or [Discard_late].  The
    execution is over either way. *)

val no_reply : server -> unit
(** The upper layer dropped the request: the execution is over, with
    nothing cached. *)

val reset_server : server -> unit

(** {1 Client: one per channel} *)

type peer = { mutable server_boot : int  (** -1: none heard *) }
(** The server's incarnation as its replies tell it; M.RPC shares one
    among its channels to a host. *)

type client = {
  peer : peer;
  mutable next_seq : int;
  mutable out_seq : int;  (** the outstanding call; 0: none *)
}

type result =
  | Accept
  | Stale
  | Rebooted  (** the server restarted while the call was retransmitted *)

val peer : unit -> peer

val client : peer -> boot:int -> client
(** [boot] is the client host's own. *)

val call : client -> int
(** Starts a call: its sequence number. *)

val client_reply : client -> seq:int -> boot:int -> retransmitted:bool -> result
(** A reply, or a fragment of one, from server boot [boot]. *)

val outstanding : client -> seq:int -> bool
(** An acknowledgement names the outstanding call. *)

val finish : client -> unit
(** The outstanding call ended, answered or not. *)

val reset_client : client -> boot:int -> unit
(** The client host rebooted, now at [boot]. *)
