//===- Protocol.h - getafixd line-oriented JSON protocol --------*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol of the `getafixd` query server: one JSON object per
/// line in each direction. A request names a verb and its arguments; the
/// response is a single JSON object with `"ok"` plus verb-specific
/// payload. Malformed input produces an `{"ok":false,"error":...}` line
/// and the connection stays usable — a bad request must never take the
/// server down.
///
/// Requests:
///
///   {"op":"solve","program":PATH,"targets":["L1","L2"],
///    "witness":false,"engine":"summary-scc"?,"source":TEXT?,
///    "timeout_ms":N?,"node_budget":N?}
///   {"op":"stats"}
///   {"op":"evict","program":PATH?}        // no program = evict all
///   {"op":"ping"}
///   {"op":"shutdown"}
///
/// `source` inlines the program text instead of a server-side path (the
/// session is then keyed by a hash of the text). `engine` overrides the
/// server's default engine for this program's session. `timeout_ms` and
/// `node_budget` bound one request's solving work (clamped by the
/// server's `--max-timeout-ms` / `--node-budget` caps); a request that
/// trips a limit gets a structured error row with
/// `"status":"hit_deadline"|"hit_node_budget"|"cancelled"`, the session
/// stopped at a completed round boundary, and a retry under a larger
/// budget resumes bit-identically.
///
/// The JSON support here is deliberately minimal — objects, arrays,
/// strings with \uXXXX escapes, numbers, booleans, null — because the
/// repository takes no external dependencies. It is a wire format, not a
/// general-purpose JSON library.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_SERVER_PROTOCOL_H
#define GETAFIX_SERVER_PROTOCOL_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace getafix {
namespace server {

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

/// A JSON value. Build with the named constructors, chain `set`/`add`,
/// serialize with `dump()` (single line, suitable for the protocol).
/// Object fields keep insertion order; lookups are linear (protocol
/// objects are tiny).
class Json {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Json() = default;

  static Json null() { return Json(); }
  static Json boolean(bool V) {
    Json J;
    J.K = Kind::Bool;
    J.BoolV = V;
    return J;
  }
  static Json number(double V) {
    Json J;
    J.K = Kind::Number;
    J.NumV = V;
    return J;
  }
  static Json str(std::string V) {
    Json J;
    J.K = Kind::String;
    J.StrV = std::move(V);
    return J;
  }
  static Json array() {
    Json J;
    J.K = Kind::Array;
    return J;
  }
  static Json object() {
    Json J;
    J.K = Kind::Object;
    return J;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return BoolV; }
  double asNumber() const { return NumV; }
  const std::string &asString() const { return StrV; }
  const std::vector<Json> &items() const { return Items; }
  const std::vector<std::pair<std::string, Json>> &fields() const {
    return Fields;
  }

  /// Appends to an array; returns *this for chaining.
  Json &add(Json V) {
    Items.push_back(std::move(V));
    return *this;
  }
  /// Sets an object field (appends; protocol builders never set a key
  /// twice); returns *this for chaining.
  Json &set(const std::string &Key, Json V) {
    Fields.emplace_back(Key, std::move(V));
    return *this;
  }
  /// Object field lookup; null when absent or not an object.
  const Json *find(const std::string &Key) const;

  /// Single-line serialization. Numbers that hold integral values print
  /// without a decimal point (iteration counts, byte totals); others with
  /// six fractional digits (seconds).
  std::string dump() const;

  /// Parses \p Text (one complete JSON value, trailing whitespace
  /// allowed). False + \p Error on malformed input.
  static bool parse(const std::string &Text, Json &Out, std::string &Error);

private:
  Kind K = Kind::Null;
  bool BoolV = false;
  double NumV = 0.0;
  std::string StrV;
  std::vector<Json> Items;
  std::vector<std::pair<std::string, Json>> Fields;
};

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

enum class Verb { Solve, Stats, Evict, Shutdown, Ping };

/// A decoded request line.
struct Request {
  Verb Op = Verb::Ping;
  std::string Program; ///< Server-side program path (solve/evict).
  std::string Source;  ///< Inline program text (alternative to Program).
  std::string Engine;  ///< Optional engine override for this program.
  std::vector<std::string> Targets; ///< Labels to solve (solve verb).
  bool Witness = false; ///< Request counterexample traces.
  /// Per-request wall-clock deadline in milliseconds; 0 = use the
  /// server's default (`--default-timeout-ms`, itself 0 = none). Clamped
  /// by `--max-timeout-ms`.
  uint64_t TimeoutMs = 0;
  /// Per-request BDD node budget; 0 = use the server's `--node-budget`
  /// cap (itself 0 = unlimited). Clamped by that cap.
  uint64_t NodeBudget = 0;
};

/// Decodes one request line. False + \p Error on malformed JSON, unknown
/// op, or missing/mistyped fields.
bool parseRequest(const std::string &Line, Request &Out, std::string &Error);

/// `{"ok":false,"error":Message}` — the response to any request that
/// could not be served.
Json errorResponse(const std::string &Message);

} // namespace server
} // namespace getafix

#endif // GETAFIX_SERVER_PROTOCOL_H
