#include "core/controller.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace reqobs::core {

FleetController::FleetController(sim::Simulation &sim,
                                 const ControllerConfig &config,
                                 std::size_t machines, std::size_t tenants,
                                 FleetActuators actuators)
    : sim_(sim), config_(config), actuators_(std::move(actuators)),
      machine_(machines), shed_(tenants)
{
    if (machines == 0)
        sim::fatal("FleetController: need at least one machine");
    if (tenants == 0)
        sim::fatal("FleetController: need at least one tenant");
    if (config_.tickPeriod <= 0)
        sim::fatal("FleetController: tickPeriod must be positive");
    if (config_.shedOffVarianceRatio >= config_.shedOnVarianceRatio)
        sim::fatal("FleetController: shed hysteresis band is inverted");
    if (config_.undrainSlackAbove <= config_.drainSlackBelow)
        sim::fatal("FleetController: drain hysteresis band is inverted");
    if (config_.scaleDownSlackAbove <= config_.scaleUpSlackBelow)
        sim::fatal("FleetController: scale hysteresis band is inverted");
    if (config_.shedMax < 0.0 || config_.shedMax > 1.0)
        sim::fatal("FleetController: shedMax must be in [0, 1]");
    if (config_.baseWorkers == 0 || config_.maxWorkers < config_.baseWorkers)
        sim::fatal("FleetController: worker bounds are inverted");
    if (config_.budgetOffDropRate >= config_.budgetOnDropRate)
        sim::fatal("FleetController: budget hysteresis band is inverted");
    if (config_.budgetClampRps <= 0.0)
        sim::fatal("FleetController: budgetClampRps must be positive");
    for (MachineState &m : machine_)
        m.workerTarget = config_.baseWorkers;
}

FleetController::~FleetController() { tickTimer_.cancel(); }

void
FleetController::start()
{
    if (running_)
        return;
    if (!inputProvider_)
        sim::fatal("FleetController: start() without an input provider");
    running_ = true;
    scheduleTick();
}

void
FleetController::stop()
{
    if (!running_)
        return;
    running_ = false;
    tickTimer_.cancel();
}

void
FleetController::scheduleTick()
{
    tickTimer_ = sim_.schedule(config_.tickPeriod, [this] {
        if (!running_)
            return;
        tickWith(inputProvider_(), sim_.now());
        scheduleTick();
    });
}

void
FleetController::tickWith(const std::vector<ControllerInput> &inputs,
                          sim::Tick now)
{
    ++stats_.ticks;

    // --- Staleness guard -------------------------------------------------
    // If no tenant anywhere has emitted a window recently, the estimates
    // describe a fleet that no longer exists (sampler wedged, probes
    // detached). Acting on them can only make things worse; freeze.
    sim::Tick newest = -1;
    for (const ControllerInput &in : inputs)
        newest = std::max(newest, in.t);
    if (newest < 0 || now - newest > config_.staleAfter) {
        ++stats_.frozenTicks;
        return;
    }

    // --- Fold inputs per machine and per tenant --------------------------
    // A machine's condition is its worst tenant (slack minimum); a
    // tenant's condition is its worst machine (variance-ratio maximum).
    // Degraded per-slot inputs still participate — the loss-aware
    // reconstruction upstream already de-biased them — but slots that
    // never emitted (t < 0) or whose last window is older than staleAfter
    // carry no current signal and are skipped. A drained machine goes
    // quiet and its slots age out, so its pre-drain panic readings cannot
    // keep actuators engaged forever.
    struct MachineView
    {
        double minSlack = 1.0;
        bool any = false;
    };
    struct TenantView
    {
        double maxVarRatio = 0.0;
        bool anySaturated = false;
        bool any = false;
        double maxDropRate = 0.0; ///< worst front-door drop rate
    };
    std::vector<MachineView> mv(machine_.size());
    std::vector<TenantView> tv(shed_.size());
    for (const ControllerInput &in : inputs) {
        if (in.t < 0 || now - in.t > config_.staleAfter)
            continue;
        if (in.machine >= machine_.size() || in.tenant >= shed_.size())
            sim::fatal("FleetController: input (%zu, %zu) out of range",
                       in.machine, in.tenant);
        MachineView &m = mv[in.machine];
        m.any = true;
        m.minSlack = std::min(m.minSlack, in.slack);
        TenantView &t = tv[in.tenant];
        t.any = true;
        t.maxVarRatio = std::max(t.maxVarRatio, in.varianceRatio);
        t.anySaturated = t.anySaturated || in.saturated;
        t.maxDropRate = std::max(t.maxDropRate, in.frontDoorDropRate);
    }

    // --- Migration (drain / reclaim) with circuit breaker ----------------
    // Drain a machine when its slack collapses; new requests flow to the
    // rest of the fleet while inflight ones finish. A drained machine
    // goes idle, so its own (now stale) slack says nothing about whether
    // rejoining is safe — a chronically slow machine would just collapse
    // again, flapping in and out of rotation on the migration period.
    // Undrain is therefore capacity RECLAIM, not recovery: a parked
    // machine rejoins only when the active fleet itself runs out of
    // headroom. Both directions share the per-machine cooldown, and the
    // breaker judges each drain by whether the active fleet actually
    // recovered — a controller whose migrations don't help must stop.
    double active_min_slack = 1.0;
    bool any_active = false;
    std::size_t drained = static_cast<std::size_t>(
        std::count_if(machine_.begin(), machine_.end(),
                      [](const MachineState &m) { return m.drained; }));
    for (std::size_t i = 0; i < machine_.size(); ++i) {
        if (!machine_[i].drained && mv[i].any) {
            any_active = true;
            active_min_slack = std::min(active_min_slack, mv[i].minSlack);
        }
    }
    const bool fleet_pressed =
        any_active && active_min_slack < config_.drainSlackBelow;
    const bool fleet_recovered =
        any_active && active_min_slack > config_.undrainSlackAbove;
    for (std::size_t i = 0; i < machine_.size(); ++i) {
        MachineState &m = machine_[i];
        if (!cooledDown(m.lastMigration, config_.migrationCooldown, now))
            continue;
        if (m.drained) {
            // Judge the drain once its cooldown has elapsed: effective
            // iff it relieved the active fleet (hysteresis band again —
            // pressed is a failure, mid-band is inconclusive and judged
            // on recovery, so a borderline reading cannot trip it).
            if (m.drainUnjudged) {
                if (fleet_pressed) {
                    m.drainUnjudged = false;
                    if (++stats_.breakerStreak >= config_.breakerThreshold)
                        stats_.breakerOpen = true;
                } else if (fleet_recovered) {
                    m.drainUnjudged = false;
                    stats_.breakerStreak = 0;
                }
            }
            if (fleet_pressed && !stats_.breakerOpen) {
                m.drained = false;
                m.lastMigration = now;
                --drained;
                ++stats_.undrains;
                if (actuators_.setDrained)
                    actuators_.setDrained(i, false);
            }
        } else if (mv[i].any && mv[i].minSlack < config_.drainSlackBelow &&
                   !stats_.breakerOpen && drained + 1 < machine_.size()) {
            // Never drain the last machine: shedding load to nowhere is
            // worse than overload.
            m.drained = true;
            m.drainUnjudged = true;
            m.lastMigration = now;
            ++drained;
            ++stats_.migrations;
            if (actuators_.setDrained)
                actuators_.setDrained(i, true);
        }
    }

    // --- Worker-pool scaling ---------------------------------------------
    for (std::size_t i = 0; i < machine_.size(); ++i) {
        MachineState &m = machine_[i];
        if (!mv[i].any)
            continue;
        if (!cooledDown(m.lastScale, config_.scaleCooldown, now))
            continue;
        unsigned target = m.workerTarget;
        if (mv[i].minSlack < config_.scaleUpSlackBelow)
            target = std::min(config_.maxWorkers,
                              m.workerTarget + config_.scaleStep);
        else if (mv[i].minSlack > config_.scaleDownSlackAbove)
            target = std::max(config_.baseWorkers,
                              m.workerTarget -
                                  std::min(config_.scaleStep, m.workerTarget));
        if (target == m.workerTarget)
            continue;
        if (target > m.workerTarget)
            ++stats_.scaleUps;
        else
            ++stats_.scaleDowns;
        m.workerTarget = target;
        m.lastScale = now;
        if (actuators_.setWorkerTarget)
            actuators_.setWorkerTarget(i, target);
    }

    // --- Admission control (per-tenant shed probability) -----------------
    for (std::size_t t = 0; t < shed_.size(); ++t) {
        TenantState &s = shed_[t];
        if (!tv[t].any)
            continue;
        if (!cooledDown(s.lastChange, config_.shedCooldown, now))
            continue;
        double prob = s.prob;
        // The detector's own verdict (sustained CV² blow-up, Eq. 2) and
        // the raw knee ratio both engage; disengaging needs the ratio
        // back under the low threshold AND the detector clear, so one
        // window hovering at the band edge cannot flap the gate.
        if (tv[t].anySaturated || tv[t].maxVarRatio > config_.shedOnVarianceRatio)
            prob = std::min(config_.shedMax, s.prob + config_.shedStep);
        else if (tv[t].maxVarRatio < config_.shedOffVarianceRatio &&
                 !tv[t].anySaturated)
            prob = std::max(0.0, s.prob - config_.shedStep);
        if (prob == s.prob)
            continue;
        if (s.prob == 0.0 && prob > 0.0)
            ++stats_.shedEngagements;
        s.prob = prob;
        s.lastChange = now;
        stats_.maxShed = std::max(stats_.maxShed, prob);
        if (actuators_.setShed)
            actuators_.setShed(t, prob, config_.shedRetryAfter);
    }

    // --- Front-door accept-budget clamp (per tenant) ---------------------
    // A connection storm shows up as an admission-path drop rate (or a
    // front-door latency blow-up) on the victim's listener long before
    // request-level signals move. Clamping the tenant's accept budget
    // turns expensive post-accept service into cheap pre-accept drops —
    // graceful degradation of the storm tenant instead of collateral
    // damage to everyone sharing the CPU. While the storm persists,
    // budget drops themselves keep the drop rate above the release
    // threshold, so the clamp holds; it lifts only once the storm ebbs.
    for (std::size_t t = 0; t < shed_.size(); ++t) {
        TenantState &s = shed_[t];
        if (!tv[t].any)
            continue;
        if (!cooledDown(s.lastBudget, config_.budgetCooldown, now))
            continue;
        const bool stormy = tv[t].maxDropRate > config_.budgetOnDropRate;
        const bool calm = tv[t].maxDropRate < config_.budgetOffDropRate;
        if (!s.budgetClamped && stormy) {
            s.budgetClamped = true;
            s.lastBudget = now;
            ++stats_.budgetClamps;
            if (actuators_.setAcceptBudget)
                actuators_.setAcceptBudget(t, config_.budgetClampRps);
        } else if (s.budgetClamped && calm) {
            s.budgetClamped = false;
            s.lastBudget = now;
            ++stats_.budgetRestores;
            if (actuators_.setAcceptBudget)
                actuators_.setAcceptBudget(t, 0.0);
        }
    }
}

} // namespace reqobs::core
