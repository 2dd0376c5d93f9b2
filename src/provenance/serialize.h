#ifndef PAW_PROVENANCE_SERIALIZE_H_
#define PAW_PROVENANCE_SERIALIZE_H_

/// \file serialize.h
/// \brief Text format for provenance graphs.
///
/// Repositories persist executions alongside their specifications:
///
/// \code
///   execution spec="disease susceptibility"
///   node 0 input I process=-1 enclosing=-1
///   node 1 begin M1 process=1 enclosing=-1
///   node 2 atomic M3 process=2 enclosing=1
///   item 0 label="SNPs" producer=0 value="rs429358,rs7412"
///   flow 0 1 items="0;1"
/// \endcode
///
/// Parsing requires the owning `Specification` (module codes resolve
/// against it); round-trip is exact and validated by tests.

#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/provenance/execution.h"

namespace paw {

/// \brief Renders `exec` in the text format above.
///
/// With a non-empty `visible` (one entry per item, as in
/// `MaskingReport::visible`), every item whose entry is false is written
/// with `placeholder` as its value; identity, label, producer and flows
/// are written unchanged. An empty `visible` writes every value.
std::string SerializeExecution(const Execution& exec,
                               const std::vector<bool>& visible = {},
                               std::string_view placeholder = {});

/// \brief Parses the text format against `spec`.
///
/// Fails when the named spec does not match `spec.name()`, when module
/// codes are unknown, or when ids are inconsistent.
Result<Execution> ParseExecution(const std::string& text,
                                 const Specification& spec);

}  // namespace paw

#endif  // PAW_PROVENANCE_SERIALIZE_H_
