(* Unused-export report over the compiled tree.

   Reads every .cmt/.cmti that dune wrote for lib, bin, bench, test,
   examples and perfbench, and prints three sections:

   (a) values declared in a lib/ .mli that no other unit references;
   (b) lib/ .mli values that only test/ units reference;
   (c) `libraries` entries in lib/*/dune that no unit of the library
       imports. An entry is judged by its main module: `foo` is imported
       when some unit imports Foo or Foo__*.

   A reference is the uid of a value, not its path: every identifier
   expression carries the declaration it resolved to, so `open`s, local
   module aliases and functor results all count. A module passed as a
   functor argument, or constrained to a signature, uses the values that
   the signature names; the coercion the compiler recorded says which.

   Usage, from the repository root after `dune build @check`:

     dune exec tools/unused_exports.exe [-- -src DIR -build DIR]

   -src is where lib/*/dune live (default .), -build where the compiled
   tree lives (default _build/default). Exits 1 when (a) or (c) is
   non-empty; (b) is printed for the record and never fails the run. *)

open Typedtree

let roots = [ "lib"; "bin"; "bench"; "test"; "examples"; "perfbench" ]

let rec files_under dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.sort compare names;
      Array.to_list names
      |> List.concat_map (fun n ->
             let p = Filename.concat dir n in
             if Sys.is_directory p then files_under p
             else if Filename.check_suffix n ".cmt" || Filename.check_suffix n ".cmti"
             then [ p ]
             else [])

(* dune's wrapped names read as the user writes them: Netstack__Tcp is
   Netstack.Tcp. *)
let display_unit modname =
  let n = String.length modname in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && modname.[!i] = '_' && modname.[!i + 1] = '_' then (
      Buffer.add_char b '.';
      i := !i + 2)
    else (
      Buffer.add_char b modname.[!i];
      incr i)
  done;
  Buffer.contents b

(* ---- references ---- *)

let is_runtime = function
  | Types.Sig_value (_, { val_kind = Val_prim _; _ }, _)
  | Sig_type _
  | Sig_module (_, Mp_absent, _, _, _)
  | Sig_modtype _ | Sig_class_type _ ->
      false
  | Sig_value _ | Sig_typext _ | Sig_module (_, Mp_present, _, _, _) | Sig_class _ -> true

(* Values of a module of type [mty] that coercion [cc] keeps. *)
let rec coerced mark (mty : Types.module_type) cc =
  match (mty, cc) with
  | Mty_signature sg, Tcoerce_none ->
      List.iter
        (function
          | Types.Sig_value (_, vd, _) -> mark vd.Types.val_uid
          | Sig_module (_, _, md, _, _) -> coerced mark md.md_type Tcoerce_none
          | _ -> ())
        sg
  | Mty_signature sg, Tcoerce_structure (pos_cc, _) ->
      let runtime = Array.of_list (List.filter is_runtime sg) in
      List.iter
        (fun (pos, cc) ->
          if pos >= 0 && pos < Array.length runtime then
            match runtime.(pos) with
            | Types.Sig_value (_, vd, _) -> mark vd.val_uid
            | Sig_module (_, _, md, _, _) -> coerced mark md.md_type cc
            | _ -> ())
        pos_cc
  | _ -> ()

let refs_of_structure str =
  let seen = Hashtbl.create 256 in
  let mark uid = Hashtbl.replace seen uid () in
  let open Tast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with Texp_ident (_, _, vd) -> mark vd.val_uid | _ -> ());
          default_iterator.expr sub e);
      module_expr =
        (fun sub me ->
          (match me.mod_desc with
          | Tmod_apply (_, arg, cc) -> coerced mark arg.mod_type cc
          | Tmod_constraint (inner, _, _, cc) -> coerced mark inner.mod_type cc
          | _ -> ());
          default_iterator.module_expr sub me);
    }
  in
  it.structure it str;
  seen

(* Value paths of an implementation, named as [decls] names them. *)
let rec impl_values prefix sg acc =
  List.fold_left
    (fun acc -> function
      | Types.Sig_value (id, vd, _) -> (prefix ^ Ident.name id, vd.Types.val_uid) :: acc
      | Sig_module (id, _, md, _, _) ->
          let rec body path : Types.module_type -> _ = function
            | Mty_signature sg -> impl_values (path ^ ".") sg acc
            | Mty_functor (_, res) -> body (path ^ "(_)") res
            | _ -> acc
          in
          body (prefix ^ Ident.name id) md.md_type
      | _ -> acc)
    acc sg

(* ---- declarations ---- *)

type decl = { unit : string; path : string; uid : Shape.Uid.t; loc : Location.t }

let rec decls unit prefix items acc =
  List.fold_left
    (fun acc item ->
      match item.sig_desc with
      | Tsig_value vd ->
          { unit; path = prefix ^ vd.val_name.txt; uid = vd.val_val.val_uid; loc = vd.val_loc }
          :: acc
      | Tsig_module md ->
          let rec body path mty =
            match mty.mty_desc with
            | Tmty_signature sg -> decls unit (path ^ ".") sg.sig_items acc
            | Tmty_functor (_, res) -> body (path ^ "(_)") res
            | _ -> acc
          in
          body (prefix ^ Option.value md.md_name.txt ~default:"_") md.md_type
      | _ -> acc)
    acc items

(* ---- dune files ---- *)

type sexp = Atom of string | List of sexp list

let parse_sexps s =
  let n = String.length s in
  let rec skip i =
    if i >= n then i
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> skip (i + 1)
      | ';' -> (
          match String.index_from_opt s i '\n' with Some j -> skip (j + 1) | None -> n)
      | _ -> i
  in
  let rec items i acc =
    let i = skip i in
    if i >= n || s.[i] = ')' then (List.rev acc, i + 1)
    else
      let x, i = item i in
      items i (x :: acc)
  and item i =
    match s.[i] with
    | '(' ->
        let xs, i = items (i + 1) [] in
        (List xs, i)
    | '"' ->
        let j = String.index_from s (i + 1) '"' in
        (Atom (String.sub s (i + 1) (j - i - 1)), j + 1)
    | _ ->
        let j = ref i in
        while !j < n && not (String.contains " \t\n\r()" s.[!j]) do
          incr j
        done;
        (Atom (String.sub s i (!j - i)), !j)
  in
  fst (items 0 [])

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* (name, libraries) of every library stanza in a dune file. *)
let libraries_of_dune path =
  List.filter_map
    (function
      | List (Atom "library" :: fields) ->
          let field k =
            List.find_map
              (function List (Atom k' :: xs) when k = k' -> Some xs | _ -> None)
              fields
          in
          let name = match field "name" with Some [ Atom n ] -> Some n | _ -> None in
          let libs =
            Option.value (field "libraries") ~default:[]
            |> List.filter_map (function Atom a -> Some a | List _ -> None)
          in
          Option.map (fun n -> (n, libs)) name
      | _ -> None)
    (parse_sexps (read_file path))

(* ---- main ---- *)

let () =
  let src = ref "." and build = ref (Filename.concat "_build" "default") in
  Arg.parse
    [
      ("-src", Arg.Set_string src, "DIR where lib/*/dune live (default .)");
      ("-build", Arg.Set_string build, "DIR compiled tree (default _build/default)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "unused_exports [-src DIR] [-build DIR]";
  (* uids referenced from a non-test unit, and from a test unit *)
  let used = Hashtbl.create 4096 and test_used = Hashtbl.create 4096 in
  (* (unit, value path) pairs its own implementation uses *)
  let own_used = Hashtbl.create 256 in
  let declared = ref [] in
  (* (library, module name) pairs: the library's units import the module *)
  let imports = Hashtbl.create 64 in
  let files =
    List.concat_map
      (fun r -> List.map (fun f -> (r, f)) (files_under (Filename.concat !build r)))
      roots
  in
  if files = [] then (
    prerr_endline ("unused_exports: no .cmt files under " ^ !build ^ "; run `dune build @check`");
    exit 2);
  List.iter
    (fun (root, file) ->
      let cmt = Cmt_format.read_cmt file in
      (* dune keeps a library's objects in <dir>/.<library>.objs/byte *)
      let objs = Filename.basename (Filename.dirname (Filename.dirname file)) in
      if root = "lib" && Filename.check_suffix objs ".objs" then begin
        let lib = Filename.chop_suffix (String.sub objs 1 (String.length objs - 1)) ".objs" in
        List.iter (fun (m, _) -> Hashtbl.replace imports (lib, m) ()) cmt.cmt_imports
      end;
      match cmt.cmt_annots with
      | Implementation str ->
          let refs = refs_of_structure str in
          let tbl = if root = "test" then test_used else used in
          (* An implementation's own uids are numbered apart from its
             interface's, so Item {comp_unit = M; id} from M.ml may name
             something else than the same uid in M.mli: skip them. *)
          Hashtbl.iter
            (fun (uid : Shape.Uid.t) () ->
              match uid with
              | Item { comp_unit; _ } when comp_unit = cmt.cmt_modname -> ()
              | _ -> Hashtbl.replace tbl uid ())
            refs;
          impl_values "" str.str_type []
          |> List.iter (fun (path, uid) ->
                 if Hashtbl.mem refs uid then Hashtbl.replace own_used (cmt.cmt_modname, path) ())
      | Interface sg when root = "lib" ->
          declared := decls cmt.cmt_modname "" sg.sig_items !declared
      | _ -> ())
    files;
  let report title ds =
    let key d = (d.loc.loc_start.pos_fname, d.loc.loc_start.pos_lnum, d.path) in
    let ds = List.sort (fun a b -> compare (key a) (key b)) ds in
    Printf.printf "%s: %d\n" title (List.length ds);
    List.iter
      (fun d ->
        let file, line, _ = key d in
        Printf.printf "  %s:%d  %s.%s%s\n" file line (display_unit d.unit) d.path
          (if Hashtbl.mem own_used (d.unit, d.path) then "  [used in own unit]" else ""))
      ds
  in
  let unreferenced = List.filter (fun d -> not (Hashtbl.mem used d.uid)) !declared in
  let test_only, unused = List.partition (fun d -> Hashtbl.mem test_used d.uid) unreferenced in
  let lib_dir = if !src = "." then "lib" else Filename.concat !src "lib" in
  let unused_libs =
    (match Sys.readdir lib_dir with exception Sys_error _ -> [||] | a -> a)
    |> Array.to_list |> List.sort compare
    |> List.map (fun d -> Filename.concat (Filename.concat lib_dir d) "dune")
    |> List.filter Sys.file_exists
    |> List.concat_map (fun dune ->
           libraries_of_dune dune
           |> List.concat_map (fun (lib, entries) ->
                  List.filter_map
                    (fun e ->
                      let m = String.capitalize_ascii e in
                      let imported (l, i) =
                        l = lib && (i = m || String.starts_with ~prefix:(m ^ "__") i)
                      in
                      if Seq.exists imported (Hashtbl.to_seq_keys imports) then None
                      else Some (Printf.sprintf "  %s  %s: %s" dune lib e))
                    entries))
  in
  report "(a) lib/ values no other unit references" unused;
  report "(b) lib/ values only test/ references" test_only;
  Printf.printf "(c) lib/*/dune libraries entries no unit of the library imports: %d\n"
    (List.length unused_libs);
  List.iter print_endline unused_libs;
  if unused <> [] || unused_libs <> [] then exit 1
