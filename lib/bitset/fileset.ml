(* Filesets are roaring-style compressed sets (see {!Roaring}): 2^16-keyed
   chunks, each stored as a sorted array, bitmap, or run container.  This
   module is a thin façade: the [Fileset] API the evaluator uses, plus the
   multi-way intersection and builder entry points the index needs. *)

type t = Roaring.t

let empty = Roaring.empty
let singleton = Roaring.singleton
let of_list = Roaring.of_list

let of_increasing_iter = Roaring.of_increasing_iter
let range = Roaring.range
let mem = Roaring.mem
let add = Roaring.add
let remove = Roaring.remove
let union = Roaring.union
let inter = Roaring.inter
let diff = Roaring.diff
let inter_many = Roaring.inter_many
let cardinal = Roaring.cardinal
let is_empty = Roaring.is_empty
let equal = Roaring.equal
let subset = Roaring.subset
let iter = Roaring.iter
let fold = Roaring.fold
let filter = Roaring.filter
let elements = Roaring.elements
let choose_opt = Roaring.choose_opt
let max_elt_opt = Roaring.max_elt_opt
let byte_size = Roaring.byte_size
let paper_byte_size ~universe = (universe + 7) / 8
let is_dense = Roaring.has_compressed

type container_stats = Roaring.stats = {
  containers : int;
  arrays : int;
  bitmaps : int;
  run_containers : int;
  bytes : int;
}

let container_stats = Roaring.stats
let pp = Roaring.pp

module Builder = struct
  type fileset = t
  type t = Roaring.builder

  let create () = Roaring.builder ()
  let add = Roaring.badd
  let remove = Roaring.bremove
  let mem = Roaring.bmem
  let cardinal = Roaring.bcardinal
  let snapshot : t -> fileset = Roaring.bsnapshot
  let clear = Roaring.bclear
end
