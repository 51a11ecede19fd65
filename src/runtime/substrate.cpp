#include "runtime/substrate.hpp"

namespace wrht::runtime {

// The what-if probe's default reports the plain free capacity: keeping
// less of a grant that cannot shrink frees nothing extra.
std::uint32_t ExecutionSubstrate::free_grant_if_kept(const SubstrateExecution&,
                                                     std::uint32_t) const {
  return largest_free_grant();
}

}  // namespace wrht::runtime
