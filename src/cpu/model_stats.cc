#include "cpu/model_stats.hh"

#include <string>

namespace ff
{
namespace cpu
{

const char *
deferReasonName(DeferReason r)
{
    switch (r) {
      case DeferReason::kNone: return "none";
      case DeferReason::kOperandInvalid: return "operand_invalid";
      case DeferReason::kOperandInFlight: return "operand_in_flight";
      case DeferReason::kMshrFull: return "mshr_full";
      case DeferReason::kStoreBufferFull: return "store_buffer_full";
      case DeferReason::kConflictRetry: return "conflict_retry";
      case DeferReason::kNoFunctionalUnit: return "no_functional_unit";
    }
    return "?";
}

std::string_view
deferredStatName(unsigned r)
{
    static const std::array<std::string, kNumDeferReasons> names = [] {
        std::array<std::string, kNumDeferReasons> n;
        for (unsigned i = 1; i < kNumDeferReasons; ++i) {
            n[i] = std::string("deferred.") +
                   deferReasonName(static_cast<DeferReason>(i));
        }
        return n;
    }();
    return names[r];
}

} // namespace cpu
} // namespace ff
