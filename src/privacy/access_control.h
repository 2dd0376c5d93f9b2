#ifndef PAW_PRIVACY_ACCESS_CONTROL_H_
#define PAW_PRIVACY_ACCESS_CONTROL_H_

/// \file access_control.h
/// \brief Principals and access views (paper Sec. 2).
///
/// "We can define a user's access privilege as the finest grained view
/// that s/he can access, called an access view." Levels are ordered; a
/// principal at level L may expand exactly the workflows whose
/// `required_level <= L`, which yields a unique maximal prefix — the
/// principal's access view.

#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/workflow/hierarchy.h"
#include "src/workflow/spec.h"

namespace paw {

/// \brief A registered user of the repository.
struct Principal {
  PrincipalId id;
  std::string name;
  AccessLevel level = 0;
  /// Group for audit attribution (e.g. "oncology-lab"); empty = no
  /// group. What a principal sees depends on the level alone.
  std::string group;
};

/// \brief In-memory principal registry.
class AccessControl {
 public:
  /// \brief Registers a principal; names must be unique.
  Result<PrincipalId> AddPrincipal(std::string name, AccessLevel level,
                                   std::string group = "");

  /// \brief Principal accessor.
  Result<Principal> Get(PrincipalId id) const;

  /// \brief Lookup by name.
  Result<Principal> Find(std::string_view name) const;

  /// \brief Number of registered principals.
  int size() const { return static_cast<int>(principals_.size()); }

  /// \brief The access view (maximal level-compatible prefix) of a
  /// principal for a given specification.
  Result<Prefix> AccessViewFor(PrincipalId id, const Specification& spec,
                               const ExpansionHierarchy& hierarchy) const;

 private:
  std::vector<Principal> principals_;
};

}  // namespace paw

#endif  // PAW_PRIVACY_ACCESS_CONTROL_H_
