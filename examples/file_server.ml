(* A Sprite-flavoured remote file server over layered RPC.

   Sprite was a network operating system whose kernel-to-kernel file
   traffic ran over exactly the RPC protocol this repository rebuilds;
   this example serves READ / WRITE / STAT procedures whose bulk
   replies exercise FRAGMENT the way Sprite's 16 KB file blocks did.

   Run with:  dune exec examples/file_server.exe *)

open Xkernel
module World = Netproto.World

let cmd_read = 10
let cmd_write = 11
let cmd_stat = 12

(* Tiny argument codecs over the byte codec the headers use. *)
let encode_name_and_data name data =
  let n = String.length name in
  let b = Bytes.create (2 + n + String.length data) in
  Codec.set_u16 b 0 n;
  Codec.set_string b 2 name;
  Codec.set_string b (2 + n) data;
  Msg.of_string (Bytes.unsafe_to_string b)

let decode_name_and_data msg =
  let n = Msg.u16 msg 0 in
  (Msg.to_string (Msg.sub msg 2 n), Msg.to_string (Msg.drop msg (2 + n)))

let () =
  let w = World.create () in
  let client_node = World.node w 0 and server_node = World.node w 1 in
  let build (n : World.node) =
    let fragment =
      Rpc.Fragment.create ~host:n.World.host
        ~lower:(Netproto.Vip.proto n.World.vip)
    in
    let channel =
      Rpc.Channel.create ~host:n.World.host
        ~lower:(Rpc.Fragment.proto fragment) ()
    in
    (fragment, Rpc.Select.create ~host:n.World.host ~channel)
  in
  let _, client_sel = build client_node in
  let server_frag, server_sel = build server_node in

  (* The "filesystem": name -> contents. *)
  let files : (string, string) Hashtbl.t = Hashtbl.create 8 in
  Rpc.Select.register server_sel ~command:cmd_write (fun req ->
      let name, data = decode_name_and_data req in
      Hashtbl.replace files name data;
      Ok Msg.empty);
  Rpc.Select.register server_sel ~command:cmd_read (fun req ->
      let name, _ = decode_name_and_data req in
      match Hashtbl.find_opt files name with
      | Some data -> Ok (Msg.of_string data)
      | None -> Error 2 (* ENOENT *));
  Rpc.Select.register server_sel ~command:cmd_stat (fun req ->
      let name, _ = decode_name_and_data req in
      let size =
        match Hashtbl.find_opt files name with
        | Some data -> String.length data
        | None -> -1
      in
      let b = Bytes.create 4 in
      Codec.set_u32 b 0 (size land 0xffffffff);
      Ok (Msg.of_string (Bytes.unsafe_to_string b)));
  Rpc.Select.serve server_sel;

  World.spawn w (fun () ->
      let cl =
        Rpc.Select.connect client_sel ~server:server_node.World.host.Host.ip
      in
      let call cmd msg =
        match Rpc.Select.call cl ~command:cmd msg with
        | Ok reply -> reply
        | Error e -> failwith (Rpc.Rpc_error.to_string e)
      in
      (* Write a 12 KB file: the request fragments on the way out. *)
      let block = String.init 12288 (fun i -> Char.chr (33 + (i mod 90))) in
      let t0 = Sim.now w.World.sim in
      ignore (call cmd_write (encode_name_and_data "/etc/motd" block));
      Printf.printf "wrote 12 KB in %.2f ms\n" ((Sim.now w.World.sim -. t0) *. 1e3);
      (* Stat it. *)
      let stat = call cmd_stat (encode_name_and_data "/etc/motd" "") in
      let size = Msg.u32 stat 0 in
      Printf.printf "stat: %d bytes\n" size;
      (* Read it back: now the 12 KB reply fragments. *)
      let t1 = Sim.now w.World.sim in
      let back = call cmd_read (encode_name_and_data "/etc/motd" "") in
      Printf.printf "read 12 KB in %.2f ms — %s\n"
        ((Sim.now w.World.sim -. t1) *. 1e3)
        (if Msg.to_string back = block then "contents intact" else "CORRUPTED");
      (* A missing file surfaces as the handler's status code. *)
      (match Rpc.Select.call cl ~command:cmd_read (encode_name_and_data "/no/such" "") with
      | Error (Rpc.Rpc_error.Remote 2) -> print_endline "missing file: ENOENT, as expected"
      | _ -> print_endline "missing file: unexpected result"));
  World.run w;
  Printf.printf
    "\nFRAGMENT on the server handled %d packets for those transfers\n"
    (Control.int_exn
       (Proto.control (Rpc.Fragment.proto server_frag) (Control.Get_stat "rx-frag")))
