#ifndef PAW_TESTS_STORE_TEST_UTIL_H_
#define PAW_TESTS_STORE_TEST_UTIL_H_

/// \file store_test_util.h
/// \brief Helpers shared by the persistent-store test suites.

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/store/wal.h"

namespace paw {

/// \brief Destroys a live store handle in place — releasing its WAL fd
/// and the exclusive directory lock — so a test may legitimately
/// reopen the directory while the `Result` wrapper stays in scope.
/// (Two live read-write handles to one store directory are an error,
/// enforced by `StoreDirLock`.)
template <typename T>
void CloseStore(Result<T>* store) {
  T closed = std::move(*store).value();
  (void)closed;
}

/// \brief Whole records of every WAL segment file in `dir`, in seq
/// order, segment headers excluded: a reading of the log independent
/// of `WalTailReader`, to compare what a reader or a follower got.
inline Result<std::vector<Record>> WalSegmentRecords(const std::string& dir) {
  PAW_ASSIGN_OR_RETURN(const std::vector<WalSegmentFile> segments,
                       ListWalSegments(dir));
  std::vector<Record> out;
  for (const WalSegmentFile& segment : segments) {
    PAW_ASSIGN_OR_RETURN(const std::string contents,
                         ReadFileToString(segment.path));
    RecordReader reader(contents);
    Record record;
    while (reader.Next(&record) == ReadOutcome::kRecord) {
      if (record.type != RecordType::kWalHeader) out.push_back(record);
    }
  }
  return out;
}

/// \brief Every regular file under `dir` (recursively), keyed by its
/// path relative to `dir`, with its full contents. Two equal images
/// mean the directory was left byte-identical.
inline std::map<std::string, std::string> DirImage(const std::string& dir) {
  std::map<std::string, std::string> image;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    image[std::filesystem::relative(entry.path(), dir).string()] =
        bytes.str();
  }
  return image;
}

}  // namespace paw

#endif  // PAW_TESTS_STORE_TEST_UTIL_H_
