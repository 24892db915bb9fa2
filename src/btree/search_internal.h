// Internal shared helper between btree.cpp and cursor.cpp: forward search
// for the first key >= / > a composite key, following the leaf chain while
// holding at most the operation leaf plus one chain page.
#pragma once

#include "buffer/buffer_pool.h"
#include "common/context.h"
#include "common/status.h"
#include "common/types.h"

namespace ariesim {
namespace btinternal {

struct NextSearch {
  bool eof = false;
  std::string value;
  Rid rid;
  PageGuard chain_guard;  ///< set when the key lives on a chained page
  uint16_t pos = 0;
};

/// kRetry when a chain page looks mid-SMO (caller should wait and restart).
/// `from` >= 0 is the position on `leaf` to start at instead of searching
/// it (Fetch Next on an unchanged leaf: one past the cursor's key).
Status SearchForward(EngineContext* ctx, ObjectId index_id, PageGuard& leaf,
                     std::string_view value, Rid rid, bool exclusive,
                     NextSearch* out, int from = -1);

}  // namespace btinternal
}  // namespace ariesim
