(** The one whole-file reader of the input front doors. *)

val read : string -> (string, string) result
(** The whole contents of the file at this path. [Error] names the path
    when the path is the problem: ["PATH: is a directory"], or the
    system's ["PATH: No such file or directory"]. Never raises. *)
