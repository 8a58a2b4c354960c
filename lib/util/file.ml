let read path =
  (* checked up front: reading a directory fails with a system error
     that names neither the path nor the problem (EOVERFLOW or EISDIR) *)
  if Sys.file_exists path && Sys.is_directory path then
    Error (path ^ ": is a directory")
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> Ok text
    | exception Sys_error msg -> Error msg
