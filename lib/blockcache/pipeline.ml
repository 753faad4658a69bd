module A = Masm.Ast

(* End-to-end block-cache build pipeline, mirroring Swapram.Pipeline. *)

type built = {
  program : A.program;
  image : Masm.Assembler.t;
  manifest : Transform.manifest;
  options : Config.options;
}

let build ?(options = Config.default_options)
    ?(layout = Masm.Assembler.default_layout) program =
  let transformed, manifest = Transform.transform ~options program in
  let image = Masm.Assembler.assemble ~layout transformed in
  { program = transformed; image; manifest; options }

let install built (system : Msp430.Platform.system) =
  Masm.Assembler.load built.image system.Msp430.Platform.memory;
  Runtime.install ~options:built.options ~manifest:built.manifest
    ~image:built.image system

type nvm_usage = {
  application_bytes : int; (* transformed code + stubs (the jump table) *)
  runtime_bytes : int;
  metadata_bytes : int; (* CFI/block tables + hash *)
}

let total_bytes u = u.application_bytes + u.runtime_bytes + u.metadata_bytes

let nvm_usage built =
  let metadata_names =
    [ Config.sym_cfi; Config.sym_cfitab; Config.sym_blocktab; Config.sym_hash ]
  in
  let runtime_names = [ Config.sym_runtime; Config.sym_memcpy ] in
  let app = ref 0 and runtime = ref 0 and metadata = ref 0 in
  List.iter
    (fun info ->
      let n = info.Masm.Assembler.info_name in
      if List.mem n metadata_names then
        metadata := !metadata + info.Masm.Assembler.info_size
      else if List.mem n runtime_names then
        runtime := !runtime + info.Masm.Assembler.info_size
      else if info.Masm.Assembler.info_section = A.Text then
        app := !app + info.Masm.Assembler.info_size)
    built.image.Masm.Assembler.items;
  {
    application_bytes = !app;
    runtime_bytes = !runtime;
    metadata_bytes = !metadata;
  }
