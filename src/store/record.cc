#include "src/store/record.h"

#include "src/common/crc32.h"

namespace paw {

std::string_view RecordTypeName(RecordType type) {
  switch (type) {
    case RecordType::kWalHeader:
      return "wal-header";
    case RecordType::kSnapshotHeader:
      return "snapshot-header";
    case RecordType::kSpecV2:
      return "spec-v2";
    case RecordType::kExecutionV2:
      return "execution-v2";
  }
  return "unknown";
}

void PutFixed32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

void PutFixed64(std::string* out, uint64_t v) {
  PutFixed32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutFixed32(out, static_cast<uint32_t>(v >> 32));
}

bool GetFixed32(std::string_view buf, size_t* offset, uint32_t* v) {
  if (buf.size() - *offset < 4 || *offset > buf.size()) return false;
  const auto* p =
      reinterpret_cast<const unsigned char*>(buf.data() + *offset);
  *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
       (static_cast<uint32_t>(p[2]) << 16) |
       (static_cast<uint32_t>(p[3]) << 24);
  *offset += 4;
  return true;
}

bool GetFixed64(std::string_view buf, size_t* offset, uint64_t* v) {
  uint32_t lo, hi;
  if (!GetFixed32(buf, offset, &lo)) return false;
  if (!GetFixed32(buf, offset, &hi)) {
    *offset -= 4;
    return false;
  }
  *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return true;
}

void PutVarint32(std::string* out, uint32_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PutVarint64(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint64(std::string_view buf, size_t* offset, uint64_t* v) {
  uint64_t result = 0;
  size_t pos = *offset;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (pos >= buf.size()) return false;
    const uint8_t byte = static_cast<uint8_t>(buf[pos++]);
    // The tenth byte may only carry the single remaining bit.
    if (shift == 63 && (byte & 0xFE) != 0) return false;
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *offset = pos;
      *v = result;
      return true;
    }
  }
  return false;
}

bool GetVarint32(std::string_view buf, size_t* offset, uint32_t* v) {
  size_t pos = *offset;
  uint64_t wide = 0;
  if (!GetVarint64(buf, &pos, &wide) || wide > 0xFFFFFFFFull) return false;
  *offset = pos;
  *v = static_cast<uint32_t>(wide);
  return true;
}

void PutLengthPrefixed(std::string* out, std::string_view s) {
  PutVarint32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

bool GetLengthPrefixed(std::string_view buf, size_t* offset,
                       std::string_view* v) {
  size_t pos = *offset;
  uint32_t len = 0;
  if (!GetVarint32(buf, &pos, &len) || len > kMaxPayloadLen) return false;
  if (!GetBytes(buf, &pos, len, v)) return false;
  *offset = pos;
  return true;
}

bool GetBytes(std::string_view buf, size_t* offset, size_t len,
              std::string_view* v) {
  if (*offset > buf.size() || buf.size() - *offset < len) return false;
  *v = buf.substr(*offset, len);
  *offset += len;
  return true;
}

void AppendRecord(RecordType type, std::string_view payload,
                  std::string* out) {
  const char type_byte = static_cast<char>(type);
  uint32_t crc = Crc32Update(0, &type_byte, 1);
  crc = Crc32Update(crc, payload.data(), payload.size());
  PutFixed32(out, static_cast<uint32_t>(payload.size()));
  PutFixed32(out, crc);
  out->push_back(type_byte);
  out->append(payload.data(), payload.size());
}

ReadOutcome RecordReader::Next(Record* out) {
  if (done_) return final_;
  if (offset_ == buf_.size()) {
    done_ = true;
    return final_ = ReadOutcome::kEndOfData;
  }
  auto torn = [&](std::string why) {
    tail_error_ = std::move(why);
    done_ = true;
    return final_ = ReadOutcome::kTornTail;
  };
  size_t pos = offset_;
  uint32_t len, crc;
  if (!GetFixed32(buf_, &pos, &len) || !GetFixed32(buf_, &pos, &crc) ||
      pos >= buf_.size()) {
    return torn("truncated record header (" +
                std::to_string(buf_.size() - offset_) + " trailing bytes)");
  }
  if (len > kMaxPayloadLen) {
    return torn("implausible payload length " + std::to_string(len));
  }
  const char type_byte = buf_[pos++];
  std::string_view payload;
  if (!GetBytes(buf_, &pos, len, &payload)) {
    return torn("truncated payload: header promises " +
                std::to_string(len) + " bytes, " +
                std::to_string(buf_.size() - pos) + " remain");
  }
  uint32_t actual = Crc32Update(0, &type_byte, 1);
  actual = Crc32Update(actual, payload.data(), payload.size());
  if (actual != crc) {
    return torn("checksum mismatch on record at offset " +
                std::to_string(offset_));
  }
  out->type = static_cast<RecordType>(type_byte);
  out->payload.assign(payload.data(), payload.size());
  offset_ = pos;
  return ReadOutcome::kRecord;
}

}  // namespace paw
