open Xkernel

module Flags = struct
  let request = 0x1
  let reply = 0x2
  let ack = 0x4
  let please_ack = 0x8

  (* CHANNEL_HDR only: a 4-byte remaining-deadline extension follows the
     base header. *)
  let deadline = 0x10
end

module Sprite = struct
  let bytes = 36

  let encode ~flags ~clnt ~srvr ~channel ~seq ~num ~mask ~command ~boot_id
      ~len ~off =
    let b = Bytes.create bytes in
    Codec.set_u16 b 0 flags;
    Codec.set_u32 b 2 (Addr.Ip.to_int clnt);
    Codec.set_u32 b 6 (Addr.Ip.to_int srvr);
    Codec.set_u16 b 10 channel;
    Codec.set_u16 b 12 0 (* srvr_process *);
    Codec.set_u32 b 14 seq;
    Codec.set_u16 b 18 num;
    Codec.set_u16 b 20 mask;
    Codec.set_u16 b 22 command;
    Codec.set_u32 b 24 boot_id;
    Codec.set_u16 b 28 len;
    Codec.set_u16 b 30 0 (* data2_sz *);
    Codec.set_u16 b 32 off;
    Codec.set_u16 b 34 0 (* data2_off *);
    Bytes.unsafe_to_string b

  (* The field offsets, in the order [encode] writes them; nothing reads
     srvr_process (12), data1_off (32) or the second data area. *)
  let flags m = Msg.u16 m 0
  let clnt_host m = Addr.Ip.of_int32_bits (Msg.u32 m 2)
  let srvr_host m = Addr.Ip.of_int32_bits (Msg.u32 m 6)
  let channel m = Msg.u16 m 10
  let sequence_num m = Msg.u32 m 14
  let num_frags m = Msg.u16 m 18
  let frag_mask m = Msg.u16 m 20
  let command m = Msg.u16 m 22
  let boot_id m = Msg.u32 m 24
  let data1_sz m = Msg.u16 m 28
end

module Select = struct
  let bytes = 4
  let typ_request = 1
  let typ_reply = 2
  let typ_request_sharded = 3
  let status_ok = 0
  let status_no_command = 1
  let status_error = 2
  let status_wrong_shard = 3

  let encode ~typ ~command ~status =
    let b = Bytes.create bytes in
    Codec.set_u8 b 0 typ;
    Codec.set_u16 b 1 command;
    Codec.set_u8 b 3 status;
    Bytes.unsafe_to_string b

  let typ m = Msg.u8 m 0
  let command m = Msg.u16 m 1
  let status m = Msg.u8 m 3

  (* Shard-stamped requests ([typ_request_sharded]) carry this extension
     between the 4-byte header and the body: which virtual shard the
     caller routed by, and under which map generation.  An ex-owner uses
     it to answer [status_wrong_shard] (body: its map version, u32)
     instead of executing a stale-routed procedure. *)
  type stamp = { shard : int; epoch : int; version : int }

  let stamp_bytes = 10

  let encode_stamp s =
    let b = Bytes.create stamp_bytes in
    Codec.set_u16 b 0 s.shard;
    Codec.set_u32 b 2 s.epoch;
    Codec.set_u32 b 6 s.version;
    Bytes.unsafe_to_string b

  (* The stamp's and the wrong-shard body's fields sit behind the
     header. *)
  let shard m = Msg.u16 m bytes
  let epoch m = Msg.u32 m (bytes + 2)
  let version m = Msg.u32 m (bytes + 6)

  let encode_wrong_shard ~version =
    let b = Bytes.create 4 in
    Codec.set_u32 b 0 version;
    Bytes.unsafe_to_string b

  let wrong_shard_version m = Msg.u32 m bytes
end

module Channel = struct
  let bytes = 18
  let ext_bytes = 4
  let err_busy = 0xB5
  let max_deadline_us = 0xFFFFFFFF

  let write b off ~flags ~channel ~proto ~seq ~error ~boot_id ~deadline_us =
    let stamped = deadline_us >= 0 in
    let flags =
      if stamped then flags lor Flags.deadline
      else flags land lnot Flags.deadline
    in
    Codec.set_u16 b off flags;
    Codec.set_u16 b (off + 2) channel;
    Codec.set_u32 b (off + 4) proto;
    Codec.set_u32 b (off + 8) seq;
    Codec.set_u16 b (off + 12) error;
    Codec.set_u32 b (off + 14) boot_id;
    if stamped then
      Codec.set_u32 b (off + bytes) (min deadline_us max_deadline_us)

  let encode ~flags ~channel ~proto ~seq ~error ~boot_id ~deadline_us =
    let b =
      Bytes.create (if deadline_us >= 0 then bytes + ext_bytes else bytes)
    in
    write b 0 ~flags ~channel ~proto ~seq ~error ~boot_id ~deadline_us;
    Bytes.unsafe_to_string b

  let flags m = Msg.u16 m 0

  (* The optional deadline extension rides between the base header and
     the payload; the flag bit says whether it is there. *)
  let stamped m = flags m land Flags.deadline <> 0
  let header_len m = if stamped m then bytes + ext_bytes else bytes
  let channel m = Msg.u16 m 2
  let protocol_num m = Msg.u32 m 4
  let sequence_num m = Msg.u32 m 8
  let error m = Msg.u16 m 12
  let boot_id m = Msg.u32 m 14
  let deadline_us m = if stamped m then Msg.u32 m bytes else -1
end

(* MAP: the shard-map control-plane message.  A coordinator encodes its
   whole assignment (S virtual shards -> K replica indices) with its
   generation stamp; receivers install it iff (epoch, version) is newer
   than what they hold.  Small by construction: one byte per shard. *)
module Map = struct
  type t = {
    epoch : int;
    version : int;
    n_replicas : int;
    owners : int array;  (* shard -> replica index *)
  }

  let header_bytes = 12
  let max_shards = 4096
  let max_replicas = 255

  let encode t =
    let s = Array.length t.owners in
    let b = Bytes.create (header_bytes + s) in
    Codec.set_u32 b 0 t.epoch;
    Codec.set_u32 b 4 t.version;
    Codec.set_u16 b 8 t.n_replicas;
    Codec.set_u16 b 10 s;
    Array.iteri (fun i o -> Codec.set_u8 b (header_bytes + i) o) t.owners;
    Bytes.unsafe_to_string b

  let u32 s i =
    (String.get_uint16_be s i lsl 16) lor String.get_uint16_be s (i + 2)

  let decode s =
    if String.length s < header_bytes then None
    else
      let n_replicas = String.get_uint16_be s 8 in
      let n_shards = String.get_uint16_be s 10 in
      if
        n_shards > max_shards || n_replicas > max_replicas
        || String.length s < header_bytes + n_shards
      then None
      else
        let owners =
          Array.init n_shards (fun i -> Char.code s.[header_bytes + i])
        in
        if Array.exists (fun o -> o >= n_replicas) owners then None
        else Some { epoch = u32 s 0; version = u32 s 4; n_replicas; owners }
end

module Fragment = struct
  let bytes = 23
  let typ_data = 1
  let typ_nack = 2

  let write b off ~typ ~clnt ~srvr ~proto ~seq ~num ~mask ~len =
    Codec.set_u8 b off typ;
    Codec.set_u32 b (off + 1) (Addr.Ip.to_int clnt);
    Codec.set_u32 b (off + 5) (Addr.Ip.to_int srvr);
    Codec.set_u32 b (off + 9) proto;
    Codec.set_u32 b (off + 13) seq;
    Codec.set_u16 b (off + 17) num;
    Codec.set_u16 b (off + 19) mask;
    Codec.set_u16 b (off + 21) len

  let encode ~typ ~clnt ~srvr ~proto ~seq ~num ~mask ~len =
    let b = Bytes.create bytes in
    write b 0 ~typ ~clnt ~srvr ~proto ~seq ~num ~mask ~len;
    Bytes.unsafe_to_string b

  (* The field offsets, in the order [encode] writes them. *)
  let typ m = Msg.u8 m 0
  let clnt_host m = Addr.Ip.of_int32_bits (Msg.u32 m 1)
  let srvr_host m = Addr.Ip.of_int32_bits (Msg.u32 m 5)
  let protocol_num m = Msg.u32 m 9
  let sequence_num m = Msg.u32 m 13
  let num_frags m = Msg.u16 m 17
  let frag_mask m = Msg.u16 m 19
  let len m = Msg.u16 m 21
end
