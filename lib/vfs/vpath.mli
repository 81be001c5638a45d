(** Slash-separated virtual paths.

    Paths are plain strings; this module centralises the lexical rules so the
    rest of the system never hand-parses slashes.  A {e normalized} absolute
    path starts with ["/"], contains no empty, ["."] or [".."] components,
    and does not end with a slash (except the root itself). *)

val root : string
(** ["/"]. *)

val is_absolute : string -> bool
(** [true] iff the path starts with ['/']. *)

val split : string -> string list
(** Components of a path, dropping empty and ["."] ones.  [".."] is kept —
    resolution against the tree decides what it means.  [split "/" = []]. *)

val join : string -> string -> string
(** [join dir name] appends one component (or a relative path) to [dir].
    An absolute [name] just replaces [dir]. *)

val normalize : string -> string
(** Lexical normalization to an absolute path: resolves ["."], [".."]
    (never above the root) and duplicate slashes.  Relative input is taken
    relative to the root. *)

val components : string -> string list
(** [split (normalize p)] without building the normalized string — what
    path resolution walks. *)

val normalize_under : cwd:string -> string -> string
(** Like {!normalize}, but relative input is interpreted against [cwd]
    (itself an absolute path). *)

val basename : string -> string
(** Last component; [""] for the root. *)

val dirname : string -> string
(** Parent path of a normalized path; ["/"] is its own parent. *)

val is_prefix : prefix:string -> string -> bool
(** [is_prefix ~prefix p] is [true] when normalized [p] equals [prefix] or
    lies strictly beneath it. *)

val replace_prefix : prefix:string -> by:string -> string -> string option
(** Rewrites a leading directory prefix: [replace_prefix ~prefix:"/a"
    ~by:"/b" "/a/x"] is [Some "/b/x"], [None] when [prefix] is not a
    prefix. *)

val valid_name : string -> bool
(** [true] iff the string is a legal directory-entry name: non-empty, no
    ['/'] and not ["."] or [".."]. *)

val depth : string -> int
(** Number of components of a normalized path; [depth "/" = 0]. *)

val extension : string -> string option
(** The basename's suffix after its last dot ([extension "/a/b.ps" = Some
    "ps"]); [None] when the basename has no dot. *)

val matches_builtin_attr : key:string -> value:string -> string -> bool
(** Whether a path satisfies one of the built-in path-derived query
    attributes: [name:] (exact basename), [ext:] (exact {!extension}) or
    [path:] (prefix).  [false] for any other key — callers own non-path
    attributes.  Shared by local query evaluation and remote namespaces so
    both sides agree on what [name:x] means. *)
