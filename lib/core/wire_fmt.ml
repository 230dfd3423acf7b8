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
  type t = {
    flags : int;
    clnt_host : Addr.Ip.t;
    srvr_host : Addr.Ip.t;
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
  }

  let bytes = 36

  let encode t =
    let w = Codec.W.create bytes in
    Codec.W.u16 w t.flags;
    Codec.W.u32 w (Addr.Ip.to_int t.clnt_host);
    Codec.W.u32 w (Addr.Ip.to_int t.srvr_host);
    Codec.W.u16 w t.channel;
    Codec.W.u16 w t.srvr_process;
    Codec.W.u32 w t.sequence_num;
    Codec.W.u16 w t.num_frags;
    Codec.W.u16 w t.frag_mask;
    Codec.W.u16 w t.command;
    Codec.W.u32 w t.boot_id;
    Codec.W.u16 w t.data1_sz;
    Codec.W.u16 w t.data2_sz;
    Codec.W.u16 w t.data1_off;
    Codec.W.u16 w t.data2_off;
    Codec.W.contents w

  let read m =
    if Msg.length m < bytes then None
    else
      Some
        {
          flags = Msg.u16 m 0;
          clnt_host = Addr.Ip.of_int32_bits (Msg.u32 m 2);
          srvr_host = Addr.Ip.of_int32_bits (Msg.u32 m 6);
          channel = Msg.u16 m 10;
          srvr_process = Msg.u16 m 12;
          sequence_num = Msg.u32 m 14;
          num_frags = Msg.u16 m 18;
          frag_mask = Msg.u16 m 20;
          command = Msg.u16 m 22;
          boot_id = Msg.u32 m 24;
          data1_sz = Msg.u16 m 28;
          data2_sz = Msg.u16 m 30;
          data1_off = Msg.u16 m 32;
          data2_off = Msg.u16 m 34;
        }
end

module Select = struct
  type t = { typ : int; command : int; status : int }

  let bytes = 4
  let typ_request = 1
  let typ_reply = 2
  let typ_request_sharded = 3
  let status_ok = 0
  let status_no_command = 1
  let status_error = 2
  let status_wrong_shard = 3

  let encode t =
    let w = Codec.W.create bytes in
    Codec.W.u8 w t.typ;
    Codec.W.u16 w t.command;
    Codec.W.u8 w t.status;
    Codec.W.contents w

  let read m =
    if Msg.length m < bytes then None
    else Some { typ = Msg.u8 m 0; command = Msg.u16 m 1; status = Msg.u8 m 3 }

  (* Shard-stamped requests ([typ_request_sharded]) carry this extension
     between the 4-byte header and the body: which virtual shard the
     caller routed by, and under which map generation.  An ex-owner uses
     it to answer [status_wrong_shard] (body: its map version, u32)
     instead of executing a stale-routed procedure. *)
  type stamp = { shard : int; epoch : int; version : int }

  let stamp_bytes = 10

  let encode_stamp s =
    let w = Codec.W.create stamp_bytes in
    Codec.W.u16 w s.shard;
    Codec.W.u32 w s.epoch;
    Codec.W.u32 w s.version;
    Codec.W.contents w

  let read_stamp m =
    if Msg.length m < stamp_bytes then None
    else
      Some { shard = Msg.u16 m 0; epoch = Msg.u32 m 2; version = Msg.u32 m 6 }

  let encode_wrong_shard ~version =
    let w = Codec.W.create 4 in
    Codec.W.u32 w version;
    Codec.W.contents w

  let read_wrong_shard m = if Msg.length m < 4 then None else Some (Msg.u32 m 0)
end

module Channel = struct
  type t = {
    flags : int;
    channel : int;
    protocol_num : int;
    sequence_num : int;
    error : int;
    boot_id : int;
    deadline_us : int;
  }

  let bytes = 18
  let ext_bytes = 4
  let err_busy = 0xB5
  let max_deadline_us = 0xFFFFFFFF

  let encode t =
    let stamped = t.deadline_us >= 0 in
    let flags =
      if stamped then t.flags lor Flags.deadline
      else t.flags land lnot Flags.deadline
    in
    let w = Codec.W.create (if stamped then bytes + ext_bytes else bytes) in
    Codec.W.u16 w flags;
    Codec.W.u16 w t.channel;
    Codec.W.u32 w t.protocol_num;
    Codec.W.u32 w t.sequence_num;
    Codec.W.u16 w t.error;
    Codec.W.u32 w t.boot_id;
    if stamped then Codec.W.u32 w (min t.deadline_us max_deadline_us);
    Codec.W.contents w

  (* The optional deadline extension rides between the base header and
     the payload; the flag bit says whether it is there. *)
  let read m =
    let n = Msg.length m in
    if n < bytes then None
    else
      let flags = Msg.u16 m 0 in
      let stamped = flags land Flags.deadline <> 0 in
      if stamped && n < bytes + ext_bytes then None
      else
        Some
          {
            flags;
            channel = Msg.u16 m 2;
            protocol_num = Msg.u32 m 4;
            sequence_num = Msg.u32 m 8;
            error = Msg.u16 m 12;
            boot_id = Msg.u32 m 14;
            deadline_us = (if stamped then Msg.u32 m bytes else -1);
          }

  let length t = if t.deadline_us >= 0 then bytes + ext_bytes else bytes
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
    let w = Codec.W.create (header_bytes + s) in
    Codec.W.u32 w t.epoch;
    Codec.W.u32 w t.version;
    Codec.W.u16 w t.n_replicas;
    Codec.W.u16 w s;
    Array.iter (fun o -> Codec.W.u8 w o) t.owners;
    Codec.W.contents w

  let decode s =
    if String.length s < header_bytes then None
    else
      let r = Codec.R.of_string s in
      let epoch = Codec.R.u32 r in
      let version = Codec.R.u32 r in
      let n_replicas = Codec.R.u16 r in
      let n_shards = Codec.R.u16 r in
      if
        n_shards > max_shards || n_replicas > max_replicas
        || String.length s < header_bytes + n_shards
      then None
      else
        let owners =
          Array.init n_shards (fun i -> Char.code s.[header_bytes + i])
        in
        if Array.exists (fun o -> o >= n_replicas) owners then None
        else Some { epoch; version; n_replicas; owners }
end

module Fragment = struct
  let bytes = 23
  let typ_data = 1
  let typ_nack = 2

  let encode ~typ ~clnt ~srvr ~proto ~seq ~num ~mask ~len =
    let w = Codec.W.create bytes in
    Codec.W.u8 w typ;
    Codec.W.u32 w (Addr.Ip.to_int clnt);
    Codec.W.u32 w (Addr.Ip.to_int srvr);
    Codec.W.u32 w proto;
    Codec.W.u32 w seq;
    Codec.W.u16 w num;
    Codec.W.u16 w mask;
    Codec.W.u16 w len;
    Codec.W.contents w

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
