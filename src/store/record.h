#ifndef PAW_STORE_RECORD_H_
#define PAW_STORE_RECORD_H_

/// \file record.h
/// \brief The binary record format shared by the WAL and snapshots.
///
/// A record is a length-prefixed, CRC-checksummed frame:
///
/// \code
///   +----------------+----------------+------+-------------------+
///   | payload_len u32| crc32      u32 | type | payload bytes ... |
///   +----------------+----------------+------+-------------------+
///        little-endian     over type+payload   payload_len bytes
/// \endcode
///
/// The CRC covers the type byte and the payload, so a frame whose
/// length field survived a crash but whose body did not is still
/// rejected. `RecordReader` walks a buffer and classifies the end of
/// data as either a clean end (buffer exhausted exactly at a record
/// boundary) or a *torn tail* (trailing bytes that do not form a whole,
/// checksummed record — the signature of a crash mid-append).

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace paw {

/// \brief What a store record contains.
enum class RecordType : uint8_t {
  /// WAL file header: payload = fixed64 base LSN.
  kWalHeader = 1,
  // Types 2 and 3 held v1 text payloads; they are retired and refused
  // on replay (see `IsRetiredTextRecord`).
  /// Snapshot file header: payload = fixed64 covered LSN.
  kSnapshotHeader = 4,
  /// A specification + its policy, binary payload (see codec.h).
  kSpecV2 = 5,
  /// An execution of a stored spec, binary payload (see codec.h).
  kExecutionV2 = 6,
};

/// \brief True for the retired v1 text record types (2 = spec,
/// 3 = execution), which this build refuses to replay.
inline bool IsRetiredTextRecord(RecordType type) {
  const auto raw = static_cast<uint8_t>(type);
  return raw == 2 || raw == 3;
}

/// \brief Short name of a record type ("spec", "execution", ...).
std::string_view RecordTypeName(RecordType type);

/// \brief A decoded record.
struct Record {
  RecordType type = RecordType::kSpecV2;
  std::string payload;
};

/// \brief Frame header size: u32 length + u32 crc + u8 type.
inline constexpr size_t kRecordHeaderSize = 9;

/// \brief Upper bound on a single payload; longer lengths are treated
/// as corruption rather than allocated.
inline constexpr uint32_t kMaxPayloadLen = 1u << 30;

/// \brief Appends the frame for (`type`, `payload`) to `out`.
void AppendRecord(RecordType type, std::string_view payload,
                  std::string* out);

// Little-endian fixed-width integers, used inside payloads.
void PutFixed32(std::string* out, uint32_t v);
void PutFixed64(std::string* out, uint64_t v);
/// \brief Reads a fixed32 at `*offset`, advancing it; false on overrun.
bool GetFixed32(std::string_view buf, size_t* offset, uint32_t* v);
bool GetFixed64(std::string_view buf, size_t* offset, uint64_t* v);
/// \brief Reads `len` bytes at `*offset`, advancing it; false on overrun.
bool GetBytes(std::string_view buf, size_t* offset, size_t len,
              std::string_view* v);

// LEB128 varints, used inside binary payloads. `Get*` fail on
// overrun and on encodings wider than the target type.
void PutVarint32(std::string* out, uint32_t v);
void PutVarint64(std::string* out, uint64_t v);
bool GetVarint32(std::string_view buf, size_t* offset, uint32_t* v);
bool GetVarint64(std::string_view buf, size_t* offset, uint64_t* v);

/// \brief ZigZag mapping for signed fields that can be small negatives
/// (process ids, access levels): -1 -> 1, 0 -> 0, 1 -> 2, ...
inline uint32_t ZigZag32(int32_t v) {
  return (static_cast<uint32_t>(v) << 1) ^
         static_cast<uint32_t>(v >> 31);
}
inline int32_t UnZigZag32(uint32_t v) {
  return static_cast<int32_t>((v >> 1) ^ (~(v & 1) + 1));
}
inline uint64_t ZigZag64(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}
inline int64_t UnZigZag64(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// \brief Appends a varint length + raw bytes (the payload string framing).
void PutLengthPrefixed(std::string* out, std::string_view s);
/// \brief Reads a length-prefixed string at `*offset`; false on
/// overrun or implausible length.
bool GetLengthPrefixed(std::string_view buf, size_t* offset,
                       std::string_view* v);

/// \brief Outcome of one `RecordReader::Next` call.
enum class ReadOutcome {
  /// A whole, checksum-valid record was produced.
  kRecord,
  /// The buffer ended exactly at a record boundary.
  kEndOfData,
  /// Trailing bytes do not form a valid record (crash mid-append or
  /// corruption); `RecordReader::tail_error()` says why.
  kTornTail,
};

/// \brief Sequential reader over a buffer of records.
class RecordReader {
 public:
  explicit RecordReader(std::string_view buf) : buf_(buf) {}

  /// \brief Decodes the next record. After `kTornTail` or `kEndOfData`
  /// every further call returns the same outcome.
  ReadOutcome Next(Record* out);

  /// \brief Bytes consumed by whole valid records (the safe prefix a
  /// torn file may be truncated to).
  size_t valid_bytes() const { return offset_; }

  /// \brief Bytes after the valid prefix (0 unless the tail is torn).
  size_t dropped_bytes() const { return buf_.size() - offset_; }

  /// \brief Why the tail was rejected (empty unless `kTornTail`).
  const std::string& tail_error() const { return tail_error_; }

 private:
  std::string_view buf_;
  size_t offset_ = 0;
  bool done_ = false;
  ReadOutcome final_ = ReadOutcome::kEndOfData;
  std::string tail_error_;
};

}  // namespace paw

#endif  // PAW_STORE_RECORD_H_
