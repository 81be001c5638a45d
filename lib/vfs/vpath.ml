let root = "/"

let is_absolute p = String.length p > 0 && p.[0] = '/'

let split p =
  String.split_on_char '/' p
  |> List.filter (fun c -> c <> "" && c <> ".")

let rec resolve_dots acc = function
  | [] -> List.rev acc
  | ".." :: rest -> (
      match acc with
      | [] -> resolve_dots [] rest (* ".." above root stays at root *)
      | _ :: up -> resolve_dots up rest)
  | c :: rest -> resolve_dots (c :: acc) rest

let of_components = function
  | [] -> root
  | cs -> "/" ^ String.concat "/" cs

let components p = resolve_dots [] (split p)

let normalize p = of_components (components p)

let join dir name =
  if is_absolute name then normalize name
  else normalize (dir ^ "/" ^ name)

let normalize_under ~cwd p =
  if is_absolute p then normalize p else join (normalize cwd) p

let basename p =
  match List.rev (split p) with [] -> "" | last :: _ -> last

let dirname p =
  match List.rev (split p) with
  | [] | [ _ ] -> root
  | _ :: rest -> of_components (List.rev rest)

let is_prefix ~prefix p =
  let prefix = normalize prefix and p = normalize p in
  prefix = root || p = prefix
  || String.length p > String.length prefix
     && String.sub p 0 (String.length prefix) = prefix
     && p.[String.length prefix] = '/'

let replace_prefix ~prefix ~by p =
  let prefix = normalize prefix and p = normalize p in
  if not (is_prefix ~prefix p) then None
  else
    let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t in
    let tail = drop (List.length (split prefix)) (split p) in
    Some (normalize (of_components (resolve_dots [] (split by) @ tail)))

let valid_name n =
  n <> "" && n <> "." && n <> ".." && not (String.contains n '/')

let extension p =
  let base = basename p in
  match String.rindex_opt base '.' with
  | Some i -> Some (String.sub base (i + 1) (String.length base - i - 1))
  | None -> None

let matches_builtin_attr ~key ~value p =
  match key with
  | "name" -> basename p = value
  | "ext" -> extension p = Some value
  | "path" -> is_prefix ~prefix:value p
  | _ -> false

let depth p = List.length (split p)
