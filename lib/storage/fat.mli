(** FAT-32-subset filesystem as a library (Table 1 "FAT-32").

    Cluster-chained files and directories with an in-memory FAT written
    through to the device. Reads can be streamed one sector at a time
    ({!read_sectors}) — the paper's buffer-management point: the library
    hands out sector iterators instead of building large lists in the heap
    (§3.5.2).

    Subset: 8.3 names are relaxed to arbitrary ≤47-byte names, no long
    filename entries, single FAT copy, no timestamps. *)

type t

exception Not_found_path of string
exception Already_exists of string
exception Not_a_directory of string
exception Is_a_directory of string
exception Directory_not_empty of string
exception No_space

(** [format backend ()] writes a fresh filesystem and mounts it. *)
val format : Backend.t -> ?sectors_per_cluster:int -> unit -> t Mthread.Promise.t

(** Mount an existing filesystem. @raise Invalid_argument on bad magic. *)
val mount : Backend.t -> t Mthread.Promise.t

(** Paths are '/'-separated, absolute ("/a/b.txt"). *)

val mkdir : t -> string -> unit Mthread.Promise.t
val create : t -> string -> unit Mthread.Promise.t

(** Replace a file's contents. Creates the file if absent. *)
val write_file : t -> string -> Bytestruct.t -> unit Mthread.Promise.t

val read_file : t -> string -> Bytestruct.t Mthread.Promise.t

(** [read_sectors t path f] feeds the file one sector-sized view at a time
    (the final view is trimmed to the file size). *)
val read_sectors : t -> string -> (Bytestruct.t -> unit Mthread.Promise.t) -> unit Mthread.Promise.t

(** Entries of a directory, sorted. *)
val list_dir : t -> string -> string list Mthread.Promise.t

(** Remove a file or empty directory. *)
val remove : t -> string -> unit Mthread.Promise.t

val file_size : t -> string -> int Mthread.Promise.t
val is_directory : t -> string -> bool Mthread.Promise.t
val exists : t -> string -> bool Mthread.Promise.t

val free_clusters : t -> int
