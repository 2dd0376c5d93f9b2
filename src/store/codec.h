#ifndef PAW_STORE_CODEC_H_
#define PAW_STORE_CODEC_H_

/// \file codec.h
/// \brief Binary payload layouts for spec and execution records.
///
/// Payloads are length-prefixed binary: varint ids and counts, raw
/// (unescaped, unquoted) string bytes. Replay re-tokenizes nothing —
/// module references are dense indices, not codes — so replay is
/// parse-free:
///
/// \code
///   kSpecV2:
///     str name | varint n_workflows | varint root
///     n_workflows x { str code | str name | zigzag level }
///     varint n_modules
///     n_modules x { str code | varint workflow | u8 kind | str name |
///                   varint expansion+1 | varint n_keywords | str... }
///     varint n_edges
///     n_edges x { varint src | varint dst | varint n_labels | str... }
///     zigzag default_level | varint n_labels x { str label | zigzag lv }
///     varint n_module_reqs x { str code | zigzag64 gamma | zigzag lv }
///     varint n_structural x { str src | str dst | zigzag lv }
///
///   kExecutionV2:
///     varint spec_id | varint n_nodes
///     n_nodes x { u8 kind | varint module | zigzag process |
///                 varint enclosing+1 }
///     varint n_items x { str label | varint producer | str value }
///     varint n_flows x { varint from | varint to |
///                        varint n_item_ids | varint item_id... }
/// \endcode
///
/// where `str` is a varint byte length followed by the raw bytes, so
/// payloads carry arbitrary bytes (raw newlines, semicolons, any UTF-8).
///
/// `ApplyRecord` replays one record into a `Repository`; it is the
/// single code path used by both snapshot loading and WAL replay, so
/// recovered state is bit-identical to freshly ingested state.

#include <string>

#include "src/common/status.h"
#include "src/privacy/policy.h"
#include "src/provenance/execution.h"
#include "src/repo/repository.h"
#include "src/store/record.h"
#include "src/workflow/spec.h"

namespace paw {

/// \brief A decoded spec record: the spec and its policy.
struct DecodedSpec {
  Specification spec;
  PolicySet policy;
};

/// \brief Builds a `kSpecV2` payload from a spec and its policy.
std::string EncodeSpecPayloadV2(const Specification& spec,
                                const PolicySet& policy);

/// \brief Decodes a `kSpecV2` payload; validates the rebuilt spec and
/// policy exactly as ingest does.
Result<DecodedSpec> DecodeSpecPayloadV2(std::string_view payload);

/// \brief Builds a `kExecutionV2` payload for an execution of
/// `spec_id`.
std::string EncodeExecutionPayloadV2(int spec_id, const Execution& exec);

/// \brief Decodes a `kExecutionV2` payload against its owning spec.
Result<Execution> DecodeExecutionPayloadV2(std::string_view payload,
                                           const Specification& spec);

/// \brief Reads just the spec id of a `kExecutionV2` payload (replay
/// needs it to locate the owning spec before the body can be decoded).
/// Rejects ids outside [0, INT32_MAX].
Result<int> DecodeExecutionSpecId(std::string_view payload);

// ---- Replay -----------------------------------------------------------------

/// \brief Replays one spec / execution record into `repo`.
///
/// Entries are assigned the next dense id, so replaying records in
/// append order reproduces the original id assignment exactly. A
/// retired v1 text record (type 2 or 3) is a FailedPrecondition: this
/// build reads only binary payloads.
Status ApplyRecord(const Record& record, Repository* repo);

/// \brief Durability metadata for an entry persisted as `payload` at
/// `lsn`; `origin` is the locator prefix ("wal" or "snapshot").
PersistMeta MakePersistMeta(uint64_t lsn, std::string_view payload,
                            std::string_view origin);

}  // namespace paw

#endif  // PAW_STORE_CODEC_H_
