(** End-to-end build pipeline for the block-cache baseline, mirroring
    {!Swapram.Pipeline}. *)

type built = {
  program : Masm.Ast.program;
  image : Masm.Assembler.t;
  manifest : Transform.manifest;
  options : Config.options;
}

val build :
  ?options:Config.options ->
  ?layout:Masm.Assembler.layout ->
  Masm.Ast.program ->
  built

val install : built -> Msp430.Platform.system -> Runtime.t

type nvm_usage = {
  application_bytes : int;
      (** transformed code + per-CFI stubs (the jump table) *)
  runtime_bytes : int;
  metadata_bytes : int;  (** CFI/block tables + the hash table *)
}

val total_bytes : nvm_usage -> int
val nvm_usage : built -> nvm_usage
