(** Header formats from the paper's appendix.

    Binary codecs for the four C structures: SPRITE_HDR (monolithic
    RPC), SELECT_HDR, CHANNEL_HDR and FRAGMENT_HDR.  As the paper notes,
    the union of the three layered headers is nearly identical to the
    monolithic header, with sequence numbers and protocol-number fields
    duplicated because FRAGMENT and CHANNEL are each meant to be used by
    multiple high-level protocols.

    Each [read] takes the header at the front of a message, reading its
    fields in place ({!Xkernel.Msg.u16} and friends), and returns [None]
    when the message is too short to hold it; the caller then
    {!Xkernel.Msg.drop}s the header.  FRAGMENT_HDR, read once per
    packet on the bulk path, has one reader per field instead. *)

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
  type t = {
    flags : int;
    clnt_host : Xkernel.Addr.Ip.t;
    srvr_host : Xkernel.Addr.Ip.t;
    channel : int;
    srvr_process : int;
    sequence_num : int;
    num_frags : int;
    frag_mask : int;
    command : int;
    boot_id : int;
    data1_sz : int;
    data2_sz : int;
    data1_off : int;
    data2_off : int;
        (** The dual size/offset fields exist only in the monolithic
            header; "layered RPC does not make use of [them]" because
            x-kernel messages compose without scatter/gather offsets. *)
  }

  val bytes : int
  (** 36 *)

  val encode : t -> string
  val read : Xkernel.Msg.t -> t option
end

module Select : sig
  type t = { typ : int; command : int; status : int }

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

  val encode : t -> string
  val read : Xkernel.Msg.t -> t option

  type stamp = { shard : int; epoch : int; version : int }
  (** Which virtual shard the client routed by, and under which map
      generation, carried between header and body on
      [typ_request_sharded] requests. *)

  val stamp_bytes : int
  (** 10 *)

  val encode_stamp : stamp -> string

  val read_stamp : Xkernel.Msg.t -> stamp option
  (** the stamp at the front of the message (after the header) *)

  val encode_wrong_shard : version:int -> string

  val read_wrong_shard : Xkernel.Msg.t -> int option
  (** the map version at the front of a wrong-shard reply's body *)
end

module Channel : sig
  type t = {
    flags : int;
    channel : int;
    protocol_num : int;
    sequence_num : int;
    error : int;
    boot_id : int;
    deadline_us : int;
        (** remaining call budget in microseconds at transmit time;
            [-1] means "no deadline stamped" and keeps the header at its
            paper-exact 18 bytes.  [encode] sets or clears the
            deadline flag bit (0x10, not in the paper) itself and
            appends the extension word only when the field is
            non-negative, clamped to {!max_deadline_us}; [read] takes
            the word only when the flag is set. *)
  }

  val bytes : int
  (** 18 — the base header; unchanged from the paper's appendix *)

  val ext_bytes : int
  (** 4 — the optional deadline extension word *)

  val err_busy : int
  (** error code carried in a reply when the server refuses admission *)

  val max_deadline_us : int
  (** largest encodable remaining deadline (u32) *)

  val encode : t -> string

  val read : Xkernel.Msg.t -> t option
  (** the whole header: base plus, when {!Flags.deadline} is set, the
      extension; [None] if the message is shorter than that *)

  val length : t -> int
  (** bytes the header takes on the wire: {!bytes}, plus {!ext_bytes}
      when [deadline_us] is stamped *)
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

(** FRAGMENT_HDR has no record: FRAGMENT writes it field by field and
    reads each field in place where it needs it, so a fragment costs
    only its header bytes on either side. *)
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

  (** {2 In-place field readers}

      Each reads one field of the header at the front of a message
      without allocating.  The caller checks first that the message
      holds at least {!bytes}; a shorter one raises
      [Invalid_argument]. *)

  val typ : Xkernel.Msg.t -> int
  val clnt_host : Xkernel.Msg.t -> Xkernel.Addr.Ip.t
  val srvr_host : Xkernel.Msg.t -> Xkernel.Addr.Ip.t
  val protocol_num : Xkernel.Msg.t -> int
  val sequence_num : Xkernel.Msg.t -> int
  val num_frags : Xkernel.Msg.t -> int
  val frag_mask : Xkernel.Msg.t -> int
  val len : Xkernel.Msg.t -> int
end
