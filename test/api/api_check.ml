(* Report the exported values, and the optional parameters of used ones,
   that no other compilation unit uses.

   Exports are the [val] items of every .cmti under an [-exports] root,
   nested signatures included.  References are the value identifiers
   in every .cmt under the positional and [-tests] roots.  They are
   matched by [Types.val_uid], not by path text, so a use through a
   module alias ([module E = Rpc.Experiments] then [E.t2]) counts.  An
   export is UNUSED when no other unit refers to it, and TESTONLY when
   only units under a [-tests] root do.

   For an export some other unit outside the tests uses, every optional
   parameter needs an application outside the tests that writes it,
   as [~x:v] or as a wrapper's pass-through [?x]; one that none writes
   is reported as OPTION [Module.value?x].

   With [-allowlist FILE] the report must match FILE exactly.  Each
   line of FILE is [KIND name  reason]; blank lines and lines
   starting with [#] are skipped.  Every reported value needs a line
   with a reason, and every line must still be reported; otherwise the
   mismatches go to stderr and the exit code is 1.

   Usage: api_check [-allowlist FILE] [-exports DIR]... [-tests DIR]...
          DIR... *)

let rec walk ext dir acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then walk ext path acc
      else if Filename.check_suffix name ext then path :: acc
      else acc)
    acc (Sys.readdir dir)

let files ext roots =
  List.sort_uniq compare (List.concat_map (fun r -> walk ext r []) roots)

(* [Rpc__Select_replica] -> [Select_replica], the name a caller writes. *)
let short_name modname =
  let rec go i =
    if i < 1 then modname
    else if modname.[i] = '_' && modname.[i - 1] = '_' then
      String.sub modname (i + 1) (String.length modname - i - 1)
    else go (i - 1)
  in
  go (String.length modname - 1)

type export = {
  name : string;
  unit_name : string;
  options : string list;  (** the labels of its optional parameters *)
  mutable used : bool;  (** referenced from a unit outside the tests *)
  mutable test_used : bool;
  mutable passed : string list;
      (** optional labels an application outside the tests writes *)
}

(* The labels of a value's optional parameters, in order. *)
let rec optional_labels ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, rest, _) -> l :: optional_labels rest
  | Tarrow (_, _, rest, _) -> optional_labels rest
  | _ -> []

let add_exports tbl path =
  let cmt = Cmt_format.read_cmt path in
  let unit_name = cmt.cmt_modname in
  let rec items prefix (sg : Typedtree.signature) =
    List.iter
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_value vd ->
            let name = prefix ^ "." ^ Ident.name vd.val_id in
            Hashtbl.replace tbl vd.val_val.val_uid
              {
                name;
                unit_name;
                options = optional_labels vd.val_val.val_type;
                used = false;
                test_used = false;
                passed = [];
              }
        | Tsig_module { md_id = Some id; md_type; _ } -> (
            match md_type.mty_desc with
            | Tmty_signature sg -> items (prefix ^ "." ^ Ident.name id) sg
            | _ -> ())
        | _ -> ())
      sg.sig_items
  in
  match cmt.cmt_annots with
  | Interface sg -> items (short_name unit_name) sg
  | _ -> ()

(* The optional labels an application writes.  The typer fills each
   omitted optional argument with a [None] of its own at
   [Location.none]; a written one ([~x:v], [?x]) keeps a source
   location.  The arguments are read from the untyped tree, whose
   [Pexp_apply] shape has held across compiler releases, so no
   typed-tree argument type is named here; [shallow] stops the
   untyping at each argument's root. *)
let written_options (apply : Typedtree.expression) =
  let shallow =
    {
      Untypeast.default_mapper with
      expr = (fun _ e -> Ast_helper.Exp.unreachable ~loc:e.exp_loc ());
    }
  in
  match (Untypeast.default_mapper.expr shallow apply).pexp_desc with
  | Pexp_apply (_, args) ->
      List.filter_map
        (fun ((l : Asttypes.arg_label), (a : Parsetree.expression)) ->
          match l with
          | Optional l when a.pexp_loc <> Location.none -> Some l
          | _ -> None)
        args
  | _ -> []

(* The only function that matches on typed expressions, so that a
   compiler's change to their shapes has one place to land. *)
let add_refs tbl ~from_test path =
  let cmt = Cmt_format.read_cmt path in
  (* A uid is a unit name and a counter; an interface and its own
     implementation count separately, so their uids can collide.  Only
     another unit's reference is a use. *)
  let export (vd : Types.value_description) =
    match Hashtbl.find_opt tbl vd.val_uid with
    | Some e when e.unit_name <> cmt.cmt_modname -> Some e
    | _ -> None
  in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> (
        match export vd with
        | Some e -> if from_test then e.test_used <- true else e.used <- true
        | None -> ())
    | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, _) when not from_test
      -> (
        match export vd with
        | Some x when x.options <> [] ->
            x.passed <- written_options e @ x.passed
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  match cmt.cmt_annots with
  | Implementation str -> it.structure it str
  | _ -> ()

(* Sorted [(kind, name)] pairs of every export not used outside tests,
   and as [OPTION Module.value?label] every optional parameter of a used
   export that no application outside the tests writes.  An export
   that no program uses is reported once, without its options. *)
let report ~exports ~tests roots =
  let tbl = Hashtbl.create 1024 in
  List.iter (add_exports tbl) (files ".cmti" exports);
  let test_cmts = files ".cmt" tests in
  List.iter (add_refs tbl ~from_test:true) test_cmts;
  List.iter
    (fun p -> if not (List.mem p test_cmts) then add_refs tbl ~from_test:false p)
    (files ".cmt" roots);
  Hashtbl.fold
    (fun _ e acc ->
      if e.used then
        List.filter (fun l -> not (List.mem l e.passed)) e.options
        |> List.fold_left (fun acc l -> ("OPTION", e.name ^ "?" ^ l) :: acc) acc
      else ((if e.test_used then "TESTONLY" else "UNUSED"), e.name) :: acc)
    tbl []
  |> List.sort (fun (_, a) (_, b) -> compare a b)

(* [(kind, name, reason)] of every entry of an allowlist file. *)
let read_allowlist path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if l = "" || l.[0] = '#' then None
         else
           match List.filter (( <> ) "") (String.split_on_char ' ' l) with
           | kind :: name :: reason -> Some (kind, name, String.concat " " reason)
           | words -> Some (String.concat " " words, "", ""))

(* The mismatches between a report and an allowlist, one line each. *)
let gate rows allowed =
  let listed = List.map (fun (k, n, _) -> (k, n)) allowed in
  List.filter_map
    (fun (k, n) ->
      if List.mem (k, n) listed then None
      else Some (Printf.sprintf "not in allowlist: %s %s" k n))
    rows
  @ List.filter_map
      (fun (k, n, reason) ->
        if not (List.mem (k, n) rows) then
          Some (Printf.sprintf "stale allowlist entry: %s %s" k n)
        else if reason = "" then
          Some (Printf.sprintf "no reason given: %s %s" k n)
        else None)
      allowed

let () =
  let allowlist = ref None and exports = ref [] and tests = ref [] in
  let roots = ref [] in
  let spec =
    [
      ("-allowlist", Arg.String (fun f -> allowlist := Some f),
       "FILE  fail unless the report matches FILE");
      ("-exports", Arg.String (fun d -> exports := d :: !exports),
       "DIR  read exported values from the .cmti files under DIR");
      ("-tests", Arg.String (fun d -> tests := d :: !tests),
       "DIR  references from the .cmt files under DIR are test-only");
    ]
  in
  Arg.parse spec
    (fun d -> roots := d :: !roots)
    "api_check [-allowlist FILE] [-exports DIR]... [-tests DIR]... DIR...";
  let rows = report ~exports:!exports ~tests:!tests !roots in
  List.iter (fun (k, n) -> Printf.printf "%-8s %s\n" k n) rows;
  let count k = List.length (List.filter (fun (k', _) -> k' = k) rows) in
  Printf.printf "%d UNUSED, %d TESTONLY, %d OPTION\n%!" (count "UNUSED")
    (count "TESTONLY") (count "OPTION");
  match !allowlist with
  | None -> ()
  | Some f -> (
      match gate rows (read_allowlist f) with
      | [] -> ()
      | errs ->
          List.iter (fun e -> prerr_endline ("api_check: " ^ e)) errs;
          exit 1)
