(** RPC failure outcomes shared by all client-facing call interfaces. *)

type t =
  | Timeout  (** retransmissions exhausted with no reply *)
  | Rebooted
      (** the server's boot id changed while the call was outstanding;
          at-most-once semantics cannot say whether the procedure ran *)
  | Busy
      (** a transaction is already outstanding on this channel; the
          call was rejected without transmitting anything *)
  | Wrong_shard of int
      (** the server answered but no longer owns the request's shard
          under its installed map (whose version is carried here), or a
          map install forced an in-flight attempt to hand off; the
          request was not executed — refresh the map and retry the new
          owner *)
  | Remote of int  (** server-reported status (e.g. unknown command) *)

val to_string : t -> string
