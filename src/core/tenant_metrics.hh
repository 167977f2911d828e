/**
 * @file
 * The multi-tenant agent's old name. ObservabilityAgent built from
 * TenantBindings is the tenant-scoped agent (core/agent.hh); the alias
 * stays because perfbench/stack.cc includes this header and names it.
 */

#ifndef REQOBS_CORE_TENANT_METRICS_HH
#define REQOBS_CORE_TENANT_METRICS_HH

#include "core/agent.hh"

namespace reqobs::core {

using MultiTenantAgent = ObservabilityAgent;

} // namespace reqobs::core

#endif // REQOBS_CORE_TENANT_METRICS_HH
