open Xkernel

let push_pop_stack () =
  let m = Msg.of_string "payload" in
  let m = Msg.push m "HDR2" in
  let m = Msg.push m "H1" in
  (* Pops come off in reverse push order — stack discipline.  A pop is
     an in-place read of the header followed by a drop. *)
  Tutil.check_int "inner header" 0x4831 (Msg.u16 m 0);
  let m = Msg.drop m 2 in
  Tutil.check_int "outer header" 0x48445232 (Msg.u32 m 0);
  let m = Msg.drop m 4 in
  Tutil.check_str "payload intact" "payload" (Msg.to_string m)

let pop_too_short () =
  Alcotest.check_raises "pop beyond length" (Invalid_argument "Msg.drop")
    (fun () -> ignore (Msg.drop (Msg.of_string "ab") 3));
  Alcotest.check_raises "read beyond length" (Invalid_argument "Msg.get")
    (fun () -> ignore (Msg.u16 (Msg.of_string "ab") 1))

let length_o1 () =
  let m = Msg.fill 1_000_000 'x' in
  Tutil.check_int "large fill length" 1_000_000 (Msg.length m);
  let m2 = Msg.append m m in
  Tutil.check_int "append length" 2_000_000 (Msg.length m2)

let split_rejoin () =
  let m = Msg.of_string "abcdefgh" in
  let a, b = Msg.split m 3 in
  Tutil.check_str "left" "abc" (Msg.to_string a);
  Tutil.check_str "right" "defgh" (Msg.to_string b);
  Alcotest.check Tutil.msg "rejoin" m (Msg.append a b)

let split_bounds () =
  let m = Msg.of_string "abc" in
  let a, b = Msg.split m 0 in
  Alcotest.(check bool) "empty left" true (Msg.length a = 0);
  Tutil.check_str "full right" "abc" (Msg.to_string b);
  let a, b = Msg.split m 3 in
  Tutil.check_str "full left" "abc" (Msg.to_string a);
  Alcotest.(check bool) "empty right" true (Msg.length b = 0);
  Alcotest.check_raises "negative" (Invalid_argument "Msg.split") (fun () ->
      ignore (Msg.split m (-1)));
  Alcotest.check_raises "too big" (Invalid_argument "Msg.split") (fun () ->
      ignore (Msg.split m 4))

let sub_slices () =
  let m = Msg.append (Msg.of_string "abcd") (Msg.of_string "efgh") in
  Tutil.check_str "across leaves" "cdef" (Msg.to_string (Msg.sub m 2 4));
  Tutil.check_str "empty sub" "" (Msg.to_string (Msg.sub m 4 0))

let map_byte_corrupts () =
  let m = Msg.of_string "abcdef" in
  let m' = Msg.map_byte 2 (fun c -> Char.chr (Char.code c lxor 0xff)) m in
  Alcotest.(check bool) "changed" false (Msg.equal m m');
  Tutil.check_str "only byte 2" "ab\x9cdef" (Msg.to_string m')

let equal_ignores_shape () =
  let a = Msg.append (Msg.of_string "ab") (Msg.of_string "cd") in
  let b = Msg.of_string "abcd" in
  Alcotest.(check bool) "equal across shapes" true (Msg.equal a b)

let fill_content () =
  Tutil.check_str "fill bytes" "zzzz" (Msg.to_string (Msg.fill 4 'z'));
  Alcotest.(check bool) "fill 0 empty" true (Msg.length (Msg.fill 0 'z') = 0)

(* qcheck: a message with arbitrary structure *)
let gen_msg =
  QCheck.make
    ~print:(fun parts -> String.concat "|" parts)
    QCheck.Gen.(list_size (int_range 0 8) (string_size (int_range 0 32)))

let build parts =
  List.fold_left (fun acc s -> Msg.append acc (Msg.of_string s)) Msg.empty parts

let prop_split_concat =
  Tutil.qtest "split n; append = id"
    QCheck.(pair gen_msg (int_bound 300))
    (fun (parts, n) ->
      let m = build parts in
      let n = if Msg.length m = 0 then 0 else n mod (Msg.length m + 1) in
      let a, b = Msg.split m n in
      Msg.equal m (Msg.append a b)
      && Msg.length a = n
      && Msg.length b = Msg.length m - n)

let prop_push_pop =
  Tutil.qtest "push h; pop |h| = (h, id)"
    QCheck.(pair gen_msg (string_of_size (Gen.int_range 0 40)))
    (fun (parts, h) ->
      let m = build parts in
      let n = String.length h in
      let pushed = Msg.push m h in
      String.equal h (Msg.to_string (Msg.sub pushed 0 n))
      && Msg.equal (Msg.drop pushed n) m)

let prop_to_string_concat =
  Tutil.qtest "to_string distributes over append" gen_msg (fun parts ->
      String.equal (Msg.to_string (build parts)) (String.concat "" parts))

let prop_fragment_reassemble =
  Tutil.qtest "chunked split reassembles"
    QCheck.(pair gen_msg (int_range 1 64))
    (fun (parts, chunk) ->
      let m = build parts in
      let rec frags acc off =
        if off >= Msg.length m then List.rev acc
        else
          let this = min chunk (Msg.length m - off) in
          frags (Msg.sub m off this :: acc) (off + this)
      in
      let back =
        List.fold_left Msg.append Msg.empty (frags [] 0)
      in
      Msg.equal m back)

(* Slices cut side by side from one string join back into one leaf: the
   whole string comes back from [to_string] physically, not a copy.  A
   slice of another string at the same offsets, or a gap between slices,
   must not join: a wrong join would read the bytes of the first string
   straight through. *)
let prop_append_joins_slices =
  Tutil.qtest ~count:200 "adjacent slices append to one leaf"
    QCheck.(pair (string_of_size (Gen.int_range 2 200)) (list small_nat))
    (fun (s, cuts) ->
      let n = String.length s in
      let m = Msg.of_string s in
      let cuts = List.sort_uniq compare (List.map (fun c -> c mod n) cuts) in
      let bounds = (0 :: List.filter (fun c -> c > 0) cuts) @ [ n ] in
      let rec slices = function
        | a :: (b :: _ as rest) -> Msg.sub m a (b - a) :: slices rest
        | _ -> []
      in
      let joined_left = List.fold_left Msg.append Msg.empty (slices bounds) in
      let joined_right = List.fold_right Msg.append (slices bounds) Msg.empty in
      let k = 1 + (List.length cuts mod (n - 1)) in
      let other = String.map (fun c -> Char.chr ((Char.code c + 1) land 255)) s in
      let mixed = Msg.append (Msg.sub m 0 k) (Msg.sub (Msg.of_string other) k (n - k)) in
      let gapped = Msg.append (Msg.sub m 0 (k - 1)) (Msg.sub m k (n - k)) in
      Msg.to_string joined_left == s
      && Msg.to_string joined_right == s
      && Msg.to_string mixed = String.sub s 0 k ^ String.sub other k (n - k)
      && Msg.to_string gapped = String.sub s 0 (k - 1) ^ String.sub s k (n - k))

(* [get] reads in place through any tree shape, including leaves that
   start mid-string (a slice), and agrees with linearizing. *)
let prop_get =
  Tutil.qtest "get i = (to_string m).[i]"
    QCheck.(pair gen_msg (int_bound 40))
    (fun (parts, cut) ->
      let m = build parts in
      let cut = min cut (Msg.length m) in
      let m = Msg.sub m cut (Msg.length m - cut) in
      let s = Msg.to_string m in
      List.for_all (fun i -> Msg.get m i = s.[i]) (List.init (String.length s) Fun.id)
      && (match Msg.get m (Msg.length m) with
         | _ -> false
         | exception Invalid_argument _ -> true)
      && match Msg.get m (-1) with
         | _ -> false
         | exception Invalid_argument _ -> true)

(* A message of random shape: each step appends a leaf, pushes a header
   (flattened into a small leaf or not), slices, or prepends a shared
   fill, so reads land inside a first leaf, in a [Cat]'s left leaf and
   across leaf boundaries. *)
let gen_shape =
  let print steps =
    String.concat "; "
      (List.map
         (fun (k, s, a, b) -> Printf.sprintf "%d %S %d %d" k s a b)
         steps)
  in
  QCheck.make ~print
    QCheck.Gen.(
      list_size (int_range 1 8)
        (quad (int_bound 3) (string_size (int_range 0 40)) small_nat small_nat))

let shape steps =
  List.fold_left
    (fun m (kind, s, a, b) ->
      match kind with
      | 0 -> Msg.append m (Msg.of_string s)
      | 1 -> Msg.push m s
      | 2 ->
          let off = a mod (Msg.length m + 1) in
          Msg.sub m off (b mod (Msg.length m - off + 1))
      | _ -> Msg.append (Msg.fill (a mod 64) (Char.chr (b land 0xff))) m)
    Msg.empty steps

let big_endian s off n =
  let v = ref 0 in
  for i = off to off + n - 1 do
    v := (!v lsl 8) lor Char.code s.[i]
  done;
  !v

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let prop_readers =
  Tutil.qtest ~count:300 "u8..u48 = big-endian of to_string" gen_shape
    (fun steps ->
      let m = shape steps in
      let s = Msg.to_string m in
      let len = String.length s in
      List.for_all
        (fun (n, read) ->
          List.for_all
            (fun off ->
              if off + n <= len then read m off = big_endian s off n
              else raises_invalid (fun () -> read m off))
            (List.init (len + 1) Fun.id)
          && raises_invalid (fun () -> read m (-1)))
        [ (1, Msg.u8); (2, Msg.u16); (4, Msg.u32); (6, Msg.u48) ])

(* [equal] compares leaf against leaf: it must agree with comparing the
   linearized bytes, for messages of unrelated shapes, for the same
   bytes rebuilt in another shape (split at random points and joined
   leaning the other way), and for one byte changed at any offset. *)
let prop_equal =
  Tutil.qtest ~count:200 "equal = String.equal of to_string"
    QCheck.(triple gen_shape gen_shape (list_of_size (Gen.int_range 0 6) small_nat))
    (fun (sa, sb, cuts) ->
      let a = shape sa and b = shape sb in
      let s = Msg.to_string a in
      let n = String.length s in
      let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) in
      let rebuilt =
        let bounds = (0 :: cuts) @ [ n ] in
        let rec pieces = function
          | x :: (y :: _ as rest) -> String.sub s x (y - x) :: pieces rest
          | _ -> []
        in
        List.fold_right (fun p acc -> Msg.append (Msg.of_string p) acc)
          (pieces bounds) Msg.empty
      in
      let flip i = Msg.map_byte i (fun c -> Char.chr (Char.code c lxor 1)) in
      Msg.equal a b = String.equal s (Msg.to_string b)
      && Msg.equal a rebuilt && Msg.equal rebuilt a
      && List.for_all
           (fun i -> not (Msg.equal a (flip i rebuilt) || Msg.equal (flip i a) a))
           (List.init n Fun.id))

(* Leaves of odd length put a 16-bit word across every boundary. *)
let prop_checksum =
  Tutil.qtest ~count:200 "in-place sum = string sum of to_string"
    QCheck.(
      pair (int_bound 0x3ffff)
        (list_of_size (Gen.int_range 0 8)
           (map (fun s -> if String.length s mod 2 = 0 then s ^ "\x5a" else s)
              (string_of_size (Gen.int_range 0 9)))))
    (fun (init, parts) ->
      let m = build parts in
      let s = Msg.to_string m in
      let pseudo =
        String.init 4 (fun i -> Char.chr ((init lsr (8 * (3 - i))) land 0xff))
      in
      (* [Codec.ip_checksum] sums a string on its own and complements. *)
      let sum s = lnot (Codec.ip_checksum s) land 0xffff in
      Msg.ones_complement_sum m = sum s
      && Msg.ones_complement_sum ~init:((init lsr 16) + (init land 0xffff)) m
         = sum (pseudo ^ s))

(* Major words allocated so far, promotions included.  OCaml 5.1.1's
   [Gc.counters] keeps its first two boxed floats unrooted while it
   allocates the third, so a minor collection inside the call leaves
   dangling pointers; emptying the minor heap first means none can
   happen there.  Every count is taken as an int, so no box of ours is
   young when the next [Gc.minor] promotes what is live. *)
let major_words () =
  Gc.minor ();
  let _, _, w = Gc.counters () in
  int_of_float w

(* Two equal 16 KB messages, one as [fill] builds it and one as FRAGMENT
   reassembles it from 16 pieces: comparing them allocates nothing
   (OCaml 5.1.1 measures 0 minor words) and promotes nothing. *)
let equal_budget () =
  let a = Msg.fill 16384 'b' in
  let b =
    Array.fold_right Msg.append
      (Array.init 16 (fun _ -> Msg.of_string (String.make 1024 'b')))
      Msg.empty
  in
  let n = 1_000 in
  let major0 = major_words () in
  let minor0 = int_of_float (Gc.minor_words ()) in
  for _ = 1 to n do
    if not (Msg.equal a b) then Alcotest.fail "unequal"
  done;
  let minor1 = int_of_float (Gc.minor_words ()) in
  let major1 = major_words () in
  let minor = float_of_int (minor1 - minor0) /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "minor %.2f <= 0.01" minor) true (minor <= 0.01);
  Alcotest.(check int) "no major words" 0 (major1 - major0)

let () =
  Alcotest.run "msg"
    [
      ( "stack",
        [
          Alcotest.test_case "push/pop discipline" `Quick push_pop_stack;
          Alcotest.test_case "pop too short" `Quick pop_too_short;
          prop_push_pop;
        ] );
      ("readers", [ prop_readers ]);
      ( "structure",
        [
          Alcotest.test_case "O(1) length" `Quick length_o1;
          Alcotest.test_case "split and rejoin" `Quick split_rejoin;
          Alcotest.test_case "split bounds" `Quick split_bounds;
          Alcotest.test_case "sub across leaves" `Quick sub_slices;
          Alcotest.test_case "map_byte" `Quick map_byte_corrupts;
          Alcotest.test_case "equality ignores shape" `Quick equal_ignores_shape;
          Alcotest.test_case "fill" `Quick fill_content;
          prop_split_concat;
          prop_to_string_concat;
          prop_fragment_reassemble;
          prop_get;
          prop_equal;
          prop_checksum;
          prop_append_joins_slices;
        ] );
      ("budget", [ Alcotest.test_case "equal allocates nothing" `Quick equal_budget ]);
    ]
