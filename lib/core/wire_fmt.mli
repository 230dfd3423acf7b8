(** Header formats from the paper's appendix.

    Binary codecs for the four C structures: SPRITE_HDR (monolithic
    RPC), SELECT_HDR, CHANNEL_HDR and FRAGMENT_HDR.  As the paper notes,
    the union of the three layered headers is nearly identical to the
    monolithic header, with sequence numbers and protocol-number fields
    duplicated because FRAGMENT and CHANNEL are each meant to be used by
    multiple high-level protocols.

    Every header has one style and no record: [encode] takes the field
    values and writes the header once, into a string of its exact size,
    and one reader per field reads that field in place from the header
    at the front of a message ({!Xkernel.Msg.u16} and friends), without
    allocating.  The readers follow [encode]'s order.  A caller first
    checks that the message holds the header ({!Xkernel.Msg.length});
    a reader past the end raises [Invalid_argument].  It then
    {!Xkernel.Msg.drop}s the header. *)

(** Flag bits shared by SPRITE_HDR and CHANNEL_HDR. *)
module Flags : sig
  val request : int

  val reply : int

  (** explicit acknowledgement *)
  val ack : int

  (** set on retransmissions *)
  val please_ack : int
end

module Sprite : sig
  val bytes : int
  (** 36 *)

  val encode :
    flags:int ->
    clnt:Xkernel.Addr.Ip.t ->
    srvr:Xkernel.Addr.Ip.t ->
    channel:int ->
    seq:int ->
    num:int ->
    mask:int ->
    command:int ->
    boot_id:int ->
    len:int ->
    off:int ->
    string
  (** One fragment's header: [num] is the message's fragment count,
      [mask] this fragment's bit (an ack's received ones), [len] and
      [off] its payload's size and offset in the message (data1).
      [srvr_process] and the second data area's size and offset are
      written as 0: "layered RPC does not make use of [them]" because
      x-kernel messages compose without scatter/gather offsets, and
      M.RPC sends one data area. *)

  val flags : Xkernel.Msg.t -> int
  val clnt_host : Xkernel.Msg.t -> Xkernel.Addr.Ip.t
  val srvr_host : Xkernel.Msg.t -> Xkernel.Addr.Ip.t
  val channel : Xkernel.Msg.t -> int
  val sequence_num : Xkernel.Msg.t -> int
  val num_frags : Xkernel.Msg.t -> int
  val frag_mask : Xkernel.Msg.t -> int
  val command : Xkernel.Msg.t -> int
  val boot_id : Xkernel.Msg.t -> int
  val data1_sz : Xkernel.Msg.t -> int
end

module Select : sig
  val bytes : int
  (** 4 *)

  val typ_request : int
  val typ_reply : int

  val typ_request_sharded : int
  (** request whose header is followed by a {!stamp} extension (not in
      the paper; absent unless the caller routes through a shard map) *)

  val status_ok : int
  val status_no_command : int
  val status_error : int

  val status_wrong_shard : int
  (** reply from an ex-owner: the named shard is not owned by this
      server under its installed map; the body carries the server's map
      version (u32) and the procedure was {e not} executed *)

  val encode : typ:int -> command:int -> status:int -> string
  val typ : Xkernel.Msg.t -> int
  val command : Xkernel.Msg.t -> int
  val status : Xkernel.Msg.t -> int

  type stamp = { shard : int; epoch : int; version : int }
  (** Which virtual shard the client routed by, and under which map
      generation, carried between header and body on
      [typ_request_sharded] requests. *)

  val stamp_bytes : int
  (** 10 *)

  val encode_stamp : stamp -> string

  (** The stamp's fields, read from a stamped request with its SELECT
      header still in front: the message holds at least
      [bytes + stamp_bytes]. *)

  val shard : Xkernel.Msg.t -> int
  val epoch : Xkernel.Msg.t -> int
  val version : Xkernel.Msg.t -> int

  val encode_wrong_shard : version:int -> string

  val wrong_shard_version : Xkernel.Msg.t -> int
  (** the map version in a wrong-shard reply, read with its SELECT
      header still in front: the message holds at least [bytes + 4] *)
end

module Channel : sig
  val bytes : int
  (** 18 — the base header; unchanged from the paper's appendix *)

  val ext_bytes : int
  (** 4 — the optional deadline extension word *)

  val err_busy : int
  (** error code carried in a reply when the server refuses admission *)

  val max_deadline_us : int
  (** largest encodable remaining deadline (u32) *)

  val encode :
    flags:int ->
    channel:int ->
    proto:int ->
    seq:int ->
    error:int ->
    boot_id:int ->
    deadline_us:int ->
    string
  (** [proto] is the protocol number of the layer above.
      [deadline_us] is the remaining call budget in microseconds at
      transmit time; [-1] means "no deadline stamped" and keeps the
      header at its paper-exact 18 bytes.  [encode] sets or clears the
      deadline flag bit (0x10, not in the paper) itself and appends
      the extension word only when [deadline_us] is non-negative,
      clamped to {!max_deadline_us}. *)

  val write :
    bytes ->
    int ->
    flags:int ->
    channel:int ->
    proto:int ->
    seq:int ->
    error:int ->
    boot_id:int ->
    deadline_us:int ->
    unit
  (** [write b off ...] writes the header {!encode} would return into
      [b] at [off]: a frame built in one buffer, headers and body. *)

  val header_len : Xkernel.Msg.t -> int
  (** bytes the header at the front takes, by its flags: {!bytes},
      plus {!ext_bytes} when the deadline flag is set.  The message
      holds at least {!bytes}; check that it holds [header_len] before
      reading {!deadline_us}. *)

  val flags : Xkernel.Msg.t -> int
  val channel : Xkernel.Msg.t -> int
  val protocol_num : Xkernel.Msg.t -> int
  val sequence_num : Xkernel.Msg.t -> int
  val error : Xkernel.Msg.t -> int
  val boot_id : Xkernel.Msg.t -> int

  val deadline_us : Xkernel.Msg.t -> int
  (** the extension word when the deadline flag is set, else [-1] *)
end

(** MAP — the shard-map control-plane message pushed by a coordinator
    (via [Control.Install_map]) to every shard-aware client and server.
    Carries the full assignment: one owner byte per virtual shard, plus
    the (epoch, version) generation stamp receivers use for monotonic
    acceptance. *)
module Map : sig
  type t = {
    epoch : int;
    version : int;
    n_replicas : int;
    owners : int array;  (** shard index -> owning replica index *)
  }

  val max_shards : int
  val max_replicas : int

  val encode : t -> string

  val decode : string -> t option
  (** [None] on truncation, out-of-range sizes, or any owner index
      [>= n_replicas]. *)
end

module Fragment : sig
  val bytes : int
  (** 23 *)

  val typ_data : int
  val typ_nack : int
  (** request for the missing fragments named in the mask *)

  val encode :
    typ:int ->
    clnt:Xkernel.Addr.Ip.t ->
    srvr:Xkernel.Addr.Ip.t ->
    proto:int ->
    seq:int ->
    num:int ->
    mask:int ->
    len:int ->
    string
  (** The header of one fragment: [clnt] is the sending host, [srvr] the
      receiving one, [proto] the protocol number of the layer above,
      [num] the message's fragment count, [mask] this fragment's bit (a
      NACK's missing ones) and [len] its payload bytes.  Each field is
      masked to its width. *)

  val write :
    bytes ->
    int ->
    typ:int ->
    clnt:Xkernel.Addr.Ip.t ->
    srvr:Xkernel.Addr.Ip.t ->
    proto:int ->
    seq:int ->
    num:int ->
    mask:int ->
    len:int ->
    unit
  (** [write b off ...] writes the header {!encode} would return into
      [b] at [off]. *)

  val typ : Xkernel.Msg.t -> int
  val clnt_host : Xkernel.Msg.t -> Xkernel.Addr.Ip.t
  val srvr_host : Xkernel.Msg.t -> Xkernel.Addr.Ip.t
  val protocol_num : Xkernel.Msg.t -> int
  val sequence_num : Xkernel.Msg.t -> int
  val num_frags : Xkernel.Msg.t -> int
  val frag_mask : Xkernel.Msg.t -> int
  val len : Xkernel.Msg.t -> int
end
