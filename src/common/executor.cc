#include "common/executor.h"

namespace sesemi {

namespace {
thread_local ExecTier t_exec_tier = ExecTier::kBulk;
}  // namespace

ExecTier CurrentExecTier() { return t_exec_tier; }

ScopedExecTier::ScopedExecTier(ExecTier tier) : saved_(t_exec_tier) {
  t_exec_tier = tier;
}

ScopedExecTier::~ScopedExecTier() { t_exec_tier = saved_; }

}  // namespace sesemi
