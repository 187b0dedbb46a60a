(** Wire protocol for the supervised execution layer.

    The implementation lives in {!Cert.Proto} (and {!Cert.Json}) inside
    the dependency-free [cert] library, so that [rpq_certcheck] can parse
    reply streams without linking any solver code. This module re-exports
    it unchanged under the historical [Runner.Proto] name; code in the
    tree names [Cert.Proto] directly, and only the benchmark under
    [perfbench/] still imports this alias. *)

module Json = Cert.Json

include module type of struct
  include Cert.Proto
end
