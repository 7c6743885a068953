#include "sim/scenario.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

#include "attacks/panopticon_attacks.h"
#include "attacks/perf_attack.h"
#include "attacks/recovery_attacks.h"
#include "attacks/wave_attack.h"
#include "common/csv.h"
#include "common/json.h"
#include "common/log.h"
#include "common/parse.h"
#include "common/subprocess.h"
#include "dram/address.h"
#include "mitigations/factory.h"
#include "obs/obs.h"
#include "sim/result_cache.h"
#include "sim/scenario_hash.h"
#include "sim/system.h"
#include "sim/workloads.h"

namespace qprac::sim {

namespace {

constexpr const char* kWorkloadPrefix = "workload:";
constexpr const char* kTracePrefix = "trace:";
constexpr const char* kAttackPrefix = "attack:";

bool
hasWorkload(const std::string& name)
{
    for (const auto& w : workloadSuite())
        if (w.name == name)
            return true;
    return false;
}

bool
startsWith(const std::string& s, const char* prefix)
{
    return s.rfind(prefix, 0) == 0;
}

} // namespace

bool
parseSource(const std::string& text, SourceKind* kind, std::string* name)
{
    std::string t = trimmed(text);
    if (startsWith(t, kWorkloadPrefix)) {
        *kind = SourceKind::Workload;
        *name = t.substr(std::string(kWorkloadPrefix).size());
        return !name->empty();
    }
    if (startsWith(t, kTracePrefix)) {
        *kind = SourceKind::TraceFile;
        *name = t.substr(std::string(kTracePrefix).size());
        return !name->empty();
    }
    if (startsWith(t, kAttackPrefix)) {
        *kind = SourceKind::Attack;
        *name = t.substr(std::string(kAttackPrefix).size());
        return !name->empty();
    }
    // Bare names are workloads (the legacy --workload form).
    *kind = SourceKind::Workload;
    *name = t;
    return !t.empty();
}

// --- Scenario-key table -----------------------------------------------

namespace {

/**
 * Field @p member: @p parse reads a trimmed value into a T and returns
 * "" or why the value is invalid; @p print gives the canonical form.
 */
template <typename T, typename Parse, typename Print>
ScenarioField
valueField(T ScenarioConfig::*member, Parse parse, Print print)
{
    return {[=](ScenarioConfig& c, const std::string& v, std::string* why) {
                T value{};
                *why = parse(trimmed(v), &value);
                if (!why->empty())
                    return false;
                c.*member = std::move(value);
                return true;
            },
            [=](const ScenarioConfig& c) { return print(c.*member); }};
}

const auto decimal = [](auto n) { return std::to_string(n); };
const auto asIs = [](const std::string& s) { return s; };

/** valueField's parse result: "" when @p ok, else @p why. */
std::string
unless(bool ok, const std::string& why)
{
    return ok ? std::string() : why;
}

/** Integer in [lo, hi]; @p zero_word, when given, also reads as 0. */
ScenarioField
intField(int ScenarioConfig::*member, int lo, int hi,
         const char* zero_word = nullptr)
{
    const std::string why =
        strCat("expected ", zero_word ? strCat("'", zero_word, "' or ") : "",
               "an integer in [", lo, ", ", hi, "]");
    return valueField(
        member,
        [=](const std::string& v, int* n) {
            return unless((zero_word && v == zero_word) ||
                              parseIntInRange(v, lo, hi, n),
                          why);
        },
        decimal);
}

ScenarioField
powerOfTwoField(int ScenarioConfig::*member, int hi)
{
    const std::string why = strCat("expected a power of two in [1, ", hi, "]");
    return valueField(
        member,
        [=](const std::string& v, int* n) {
            return unless(parseIntInRange(v, 1, hi, n) &&
                              isPowerOfTwo(static_cast<std::uint64_t>(*n)),
                          why);
        },
        decimal);
}

/**
 * Unsigned integer up to @p hi. With a @p zero_word, 0 is a sentinel
 * spelled only that way, in and out, so a config cannot silently ask
 * for a zero-length run or an every-cycle sampler.
 */
ScenarioField
u64Field(std::uint64_t ScenarioConfig::*member, std::uint64_t hi,
         const char* zero_word, const char* why)
{
    return valueField(
        member,
        [=](const std::string& v, std::uint64_t* n) {
            return unless((zero_word && v == zero_word) ||
                              (parseU64(v, n) && (*n || !zero_word) &&
                               *n <= hi),
                          why);
        },
        [=](std::uint64_t n) {
            return n || !zero_word ? std::to_string(n) : zero_word;
        });
}

/** Enum spelled by name: @p parse accepts aliases, @p name is canonical. */
template <typename Kind>
ScenarioField
enumField(std::string ScenarioConfig::*member,
          bool (*parse)(const std::string&, Kind*), const char* (*name)(Kind),
          const char* why)
{
    return valueField(
        member,
        [=](const std::string& v, std::string* out) {
            Kind kind;
            const bool ok = parse(v, &kind);
            if (ok)
                *out = name(kind);
            return unless(ok, why);
        },
        asIs);
}

/** Text kept as given (trimmed) when @p valid accepts it. */
ScenarioField
textField(std::string ScenarioConfig::*member,
          bool (*valid)(const std::string&), const char* why)
{
    return valueField(
        member,
        [=](const std::string& v, std::string* out) {
            *out = v;
            return unless(valid(v), why);
        },
        asIs);
}

ScenarioField
toggleField(EngineToggle EngineOptions::*toggle)
{
    return {[=](ScenarioConfig& c, const std::string& v, std::string* why) {
                *why = unless(parseEngineToggle(v, &(c.engine.*toggle)),
                              "expected auto/on/off");
                return why->empty();
            },
            [=](const ScenarioConfig& c) {
                return toString(c.engine.*toggle);
            }};
}

/** A source in its canonical prefixed form. */
std::string
parseSourceValue(const std::string& v, std::string* out)
{
    SourceKind kind;
    std::string name;
    if (!parseSource(v, &kind, &name))
        return "empty or malformed source";
    if (!ScenarioRegistry::instance().has(v))
        return kind == SourceKind::Workload ? "unknown workload"
                                            : "unknown attack family";
    *out = strCat(kind == SourceKind::Workload    ? kWorkloadPrefix
                  : kind == SourceKind::TraceFile ? kTracePrefix
                                                  : kAttackPrefix,
                  name);
    return "";
}

/** A trace category list in canonical order. */
std::string
parseTraceValue(const std::string& v, std::string* out)
{
    std::uint32_t mask = 0;
    std::string why;
    if (obs::parseCategoryMask(v, &mask, &why))
        *out = obs::categoryMaskToString(mask);
    return why;
}

} // namespace

const std::vector<ScenarioKey>&
scenarioKeyTable()
{
    using C = ScenarioConfig;
    using H = KeyHashClass;
    static const std::vector<ScenarioKey> table = {
        {"source", H::Result, nullptr,
         "workload:NAME, trace:PATH or attack:NAME (--list)",
         valueField(&C::source, parseSourceValue, asIs)},
        {"mitigation", H::Result, "--mitigation",
         "design under test, e.g. qprac-ideal (--list-designs)",
         textField(
             &C::mitigation,
             [](const std::string& v) {
                 return mitigations::MitigationRegistry::instance().has(v);
             },
             "unknown mitigation design (see --list-designs)")},
        {"psq_size", H::Result, "--psq-size",
         "PSQ entries per bank (0: design default)",
         intField(&C::psq_size, 0, 1024)},
        {"nbo", H::Result, "--nbo", "Back-Off threshold",
         intField(&C::nbo, 1, 1'000'000)},
        {"nmit", H::Result, "--nmit", "RFMs per alert",
         intField(&C::nmit, 1, 64)},
        {"recovery", H::Result, "--recovery",
         "ALERT_n blocking: channel-stall, bank-isolated, group-isolated",
         enumField(&C::recovery, ctrl::parseRecoveryKind,
                   ctrl::recoveryKindName,
                   "expected channel-stall, bank-isolated or group-isolated")},
        {"channels", H::Result, "--channels", "independent DRAM channels",
         powerOfTwoField(&C::channels, 64)},
        {"ranks", H::Result, "--ranks", "ranks per channel",
         powerOfTwoField(&C::ranks, 64)},
        {"mapping", H::Result, "--mapping",
         "address mapping: row-major, bank-striped, channel-striped",
         enumField(&C::mapping, dram::parseMappingScheme,
                   dram::mappingSchemeName, "unknown mapping scheme")},
        {"insts", H::Result, "--insts",
         "instructions per core (default: QPRAC_INSTS or 300000)",
         u64Field(&C::insts, UINT64_MAX, "default",
                  "expected a positive integer or 'default'")},
        {"cores", H::Result, "--cores", "CPU cores, one trace each",
         intField(&C::cores, 1, 1024)},
        {"seed", H::Result, "--seed",
         "extra trace-RNG seed (0: QPRAC_SEED or base seeding)",
         u64Field(&C::seed, UINT64_MAX, nullptr,
                  "expected a non-negative integer")},
        {"llc_mb", H::Result, nullptr, "LLC MiB (0: QPRAC_LLC_MB or 2)",
         u64Field(&C::llc_mb, 16384, nullptr,
                  "expected an integer in [0, 16384]")},
        {"threads", H::Neutral, "--threads",
         "thread budget of points and shards (0|auto: QPRAC_THREADS/all)",
         intField(&C::threads, 0, 4096, "auto")},
        {"baseline", H::Result, nullptr,
         "also run the insecure baseline (norm_perf)",
         valueField(&C::baseline,
                    [](const std::string& v, bool* b) {
                        return unless(parseBool(v, b), "expected true/false");
                    },
                    [](bool b) { return std::string(b ? "true" : "false"); })},
        {"r1", H::Result, nullptr, "attack:wave starting pool size",
         intField(&C::r1, 1, 10'000'000)},
        {"attack_cycles", H::Result, nullptr,
         "cycle budget of attack:perf/rfm-probe/recovery-dos",
         u64Field(&C::attack_cycles, 2'000'000'000, "default",
                  "expected an integer in [1, 2000000000] or 'default'")},
        {"pipeline", H::Neutral, nullptr,
         "engine: overlap cores with the last shard window (auto|on|off)",
         toggleField(&EngineOptions::pipeline)},
        {"skip", H::Neutral, nullptr,
         "engine: next-event cycle skipping in shards (auto|on|off)",
         toggleField(&EngineOptions::skip)},
        {"counter-update", H::UnlessInline, nullptr,
         "PRAC counter RMW: inline (in tRP) or queued (off the row cycle)",
         enumField(&C::counter_update, dram::parseCounterUpdateMode,
                   dram::counterUpdateModeName,
                   "expected inline or queued")},
        {"trace", H::Neutral, nullptr,
         "event tracing: off, all or a comma list of cmd,refresh,abo,rfm,"
         "recovery,psq,attack",
         valueField(&C::trace, parseTraceValue, asIs)},
        {"trace-out", H::Neutral, nullptr,
         "trace file (empty: qprac_trace-<hash>.json; .csv: CSV)",
         textField(
             &C::trace_out, [](const std::string&) { return true; }, "")},
        {"metrics-interval", H::Neutral, nullptr,
         "metrics sampling period in cycles (off: no sampling)",
         u64Field(&C::metrics_interval, 1'000'000'000, "off",
                  "expected 'off' or a cycle count in [1, 1000000000]")},
    };
    return table;
}

const ScenarioKey*
findScenarioKey(const std::string& name)
{
    for (const auto& row : scenarioKeyTable())
        if (name == row.name)
            return &row;
    return nullptr;
}

// --- ScenarioConfig ---------------------------------------------------

const std::vector<std::string>&
ScenarioConfig::keys()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto& row : scenarioKeyTable())
            out.push_back(row.name);
        return out;
    }();
    return names;
}

bool
ScenarioConfig::set(const std::string& key, const std::string& value,
                    std::string* err)
{
    const ScenarioKey* row = findScenarioKey(key);
    std::string why;
    if (row && row->field.parse(*this, value, &why))
        return true;
    if (err)
        *err = row ? strCat(key, "='", value, "': ", why)
                   : strCat("unknown config key '", key, "'");
    return false;
}

std::string
ScenarioConfig::get(const std::string& key) const
{
    const ScenarioKey* row = findScenarioKey(key);
    if (!row)
        fatal(strCat("ScenarioConfig::get: unknown key '", key, "'"));
    return row->field.print(*this);
}

std::string
ScenarioConfig::toIni() const
{
    std::string out = "# qprac scenario\n";
    for (const auto& row : scenarioKeyTable())
        out += strCat(row.name, " = ", row.field.print(*this), "\n");
    return out;
}

bool
ScenarioConfig::fromIniText(const std::string& text, ScenarioConfig* out,
                            std::string* err)
{
    // Applies onto *out, so a file can sparsely override a caller's
    // starting point (the CLI seeds its legacy defaults first); *out is
    // untouched on error.
    ScenarioConfig cfg = *out;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::string t = trimmed(line);
        if (t.empty() || t[0] == '#' || t[0] == ';')
            continue;
        if (t.front() == '[') {
            // Section headers carry no meaning (the key space is flat)
            // but are accepted so configs can be visually grouped.
            if (t.back() != ']') {
                if (err)
                    *err = strCat("line ", lineno,
                                  ": unterminated section header");
                return false;
            }
            continue;
        }
        std::size_t eq = t.find('=');
        if (eq == std::string::npos) {
            if (err)
                *err = strCat("line ", lineno,
                              ": expected 'key = value', got '", t, "'");
            return false;
        }
        std::string key = trimmed(t.substr(0, eq));
        std::string value = trimmed(t.substr(eq + 1));
        std::string set_err;
        if (!cfg.set(key, value, &set_err)) {
            if (err)
                *err = strCat("line ", lineno, ": ", set_err);
            return false;
        }
    }
    *out = cfg;
    return true;
}

bool
ScenarioConfig::fromFile(const std::string& path, ScenarioConfig* out,
                         std::string* err)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = strCat("cannot open config file '", path, "'");
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (!fromIniText(text.str(), out, err)) {
        if (err)
            *err = strCat(path, ": ", *err);
        return false;
    }
    return true;
}

bool
ScenarioConfig::validate(std::string* err) const
{
    // Benches and tests may mutate fields directly, so re-run the
    // per-key validation on every field's canonical form.
    ScenarioConfig probe;
    for (const auto& row : scenarioKeyTable())
        if (!probe.set(row.name, row.field.print(*this), err))
            return false;
    if (sourceKind() == SourceKind::Attack && channels != 1 &&
        !ScenarioRegistry::instance().attackSupportsChannels(
            sourceName())) {
        if (err)
            *err = strCat("attack '", sourceName(),
                          "' is a single-channel event model");
        return false;
    }
    // The Wave and perf harnesses drive one QPRAC engine; any other
    // design would silently run as QPRAC. `none` turns perf's engine off.
    const bool qprac_only = sourceKind() == SourceKind::Attack &&
                            (sourceName() == "wave" || sourceName() == "perf");
    if (qprac_only && mitigation.rfind("qprac", 0) != 0 &&
        !(sourceName() == "perf" && mitigation == "none")) {
        if (err)
            *err = strCat("attack '", sourceName(),
                          "' models QPRAC designs only, not '", mitigation,
                          "'");
        return false;
    }
    return true;
}

SourceKind
ScenarioConfig::sourceKind() const
{
    SourceKind kind;
    std::string name;
    if (!parseSource(source, &kind, &name))
        fatal(strCat("bad scenario source '", source, "'"));
    return kind;
}

std::string
ScenarioConfig::sourceName() const
{
    SourceKind kind;
    std::string name;
    if (!parseSource(source, &kind, &name))
        fatal(strCat("bad scenario source '", source, "'"));
    return name;
}

ExperimentConfig
ScenarioConfig::experiment() const
{
    ExperimentConfig e;
    e.insts_per_core =
        insts ? insts : ExperimentConfig::defaultInstsPerCore();
    e.num_cores = cores;
    e.threads = threads ? threads : ExperimentConfig::defaultThreads();
    e.channels = channels;
    e.ranks = ranks;
    if (!dram::parseMappingScheme(mapping, &e.mapping))
        fatal(strCat("bad mapping scheme '", mapping, "'"));
    e.llc_mb = llc_mb ? llc_mb : ExperimentConfig::defaultLlcMb();
    e.seed = seed ? seed : ExperimentConfig::defaultSeed();
    e.engine = engine;
    if (!dram::parseCounterUpdateMode(counter_update,
                                      &e.counter_update.mode))
        fatal(strCat("bad counter-update mode '", counter_update, "'"));
    return e;
}

DesignSpec
ScenarioConfig::design() const
{
    mitigations::MitigationParams params;
    params.nbo = nbo;
    params.nmit = nmit;
    params.psq_size = psq_size;

    DesignSpec d;
    d.label = mitigation;
    d.abo.enabled = mitigation != "none";
    d.abo.nmit = nmit;
    if (!ctrl::parseRecoveryKind(recovery, &d.abo.recovery))
        fatal(strCat("bad recovery policy '", recovery, "'"));
    d.factory = [name = mitigation,
                 params](dram::PracCounters* counters) {
        return mitigations::MitigationRegistry::instance().create(
            name, params, counters);
    };
    // RFM-paced designs have no ABO alert; the controller supplies
    // their mitigation slots (nbo doubles as the target TRH).
    if (mitigation == "pride" || mitigation == "mithril") {
        d.abo.enabled = false;
        d.timing = dram::TimingParams::ddr5NoPrac();
        d.baseline_key = "noprac";
        d.rfm_policy = mitigation == "pride"
                           ? mitigations::RfmPolicy::forPride(nbo)
                           : mitigations::RfmPolicy::forMithril(nbo);
    }
    return d;
}

std::vector<std::unique_ptr<cpu::TraceSource>>
buildScenarioTraces(const ScenarioConfig& cfg)
{
    ExperimentConfig ecfg = cfg.experiment();
    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    switch (cfg.sourceKind()) {
    case SourceKind::Workload: {
        const Workload& w = findWorkload(cfg.sourceName());
        for (int c = 0; c < cfg.cores; ++c)
            traces.push_back(
                makeTrace(w, c, ecfg.insts_per_core, ecfg.seed));
        break;
    }
    case SourceKind::TraceFile:
        for (int c = 0; c < cfg.cores; ++c)
            traces.push_back(
                std::make_unique<cpu::FileTraceSource>(cfg.sourceName()));
        break;
    case SourceKind::Attack:
        fatal("attack scenarios have no trace sources");
    }
    return traces;
}

// --- ScenarioResult ---------------------------------------------------

std::string
ScenarioResult::resultJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("kind").value(is_attack ? "attack" : "system");
    w.key("cycles").value(static_cast<std::uint64_t>(sim.cycles));
    w.key("ipc_sum").value(sim.ipc_sum);
    w.key("rbmpki").value(sim.rbmpki);
    w.key("alerts_per_trefi").value(sim.alerts_per_trefi);
    w.key("acts").value(sim.acts);
    if (has_baseline)
        w.key("norm_perf").value(norm_perf);
    w.key("stats").beginObject();
    for (const auto& [name, value] : stats.entries())
        w.key(name).value(value);
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
ScenarioResult::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("scenario").beginObject();
    for (const auto& key : ScenarioConfig::keys())
        w.key(key).value(config.get(key));
    w.endObject();
    w.key("result").raw(resultJson());
    w.endObject();
    return w.str();
}

bool
ScenarioResult::fromResultJson(const JsonValue& doc,
                               const ScenarioConfig& cfg,
                               ScenarioResult* out, std::string* err)
{
    auto fail = [&](const std::string& why) {
        if (err)
            *err = strCat("result document: ", why);
        return false;
    };
    if (!doc.isObject())
        return fail("not an object");
    ScenarioResult res;
    res.config = cfg;

    const JsonValue* kind = doc.find("kind");
    if (!kind || !kind->isString() ||
        (kind->text != "attack" && kind->text != "system"))
        return fail("missing or unknown kind");
    res.is_attack = kind->text == "attack";

    const JsonValue* cycles = doc.find("cycles");
    const JsonValue* ipc = doc.find("ipc_sum");
    const JsonValue* rbmpki = doc.find("rbmpki");
    const JsonValue* alerts = doc.find("alerts_per_trefi");
    const JsonValue* acts = doc.find("acts");
    if (!cycles || !cycles->isNumber() || !ipc || !ipc->isNumber() ||
        !rbmpki || !rbmpki->isNumber() || !alerts ||
        !alerts->isNumber() || !acts || !acts->isNumber())
        return fail("missing aggregate metrics");
    res.sim.cycles = cycles->asU64();
    res.sim.ipc_sum = ipc->asDouble();
    res.sim.rbmpki = rbmpki->asDouble();
    res.sim.alerts_per_trefi = alerts->asDouble();
    res.sim.acts = acts->asDouble();

    if (const JsonValue* np = doc.find("norm_perf")) {
        if (!np->isNumber())
            return fail("norm_perf is not a number");
        res.has_baseline = true;
        res.norm_perf = np->asDouble();
    }

    const JsonValue* stats = doc.find("stats");
    if (!stats || !stats->isObject())
        return fail("missing stats object");
    for (const auto& [name, value] : stats->members) {
        if (!value.isNumber())
            return fail(strCat("stat '", name, "' is not a number"));
        res.stats.set(name, value.asDouble());
    }
    // System runs emit res.stats = sim.stats, so the legacy report and
    // --stats dump work from a reconstruction too.
    if (!res.is_attack)
        res.sim.stats = res.stats;
    *out = std::move(res);
    return true;
}

std::vector<std::string>
ScenarioResult::csvHeader()
{
    std::vector<std::string> h = ScenarioConfig::keys();
    h.insert(h.end(), {"kind", "cycles", "ipc_sum", "rbmpki",
                       "alerts_per_trefi", "acts", "norm_perf",
                       "attack_stats"});
    return h;
}

std::vector<std::string>
ScenarioResult::csvRow() const
{
    std::vector<std::string> row;
    for (const auto& key : ScenarioConfig::keys())
        row.push_back(config.get(key));
    row.push_back(is_attack ? "attack" : "system");
    // Cells that don't apply to a row are blank, never zero (an attack
    // row has no cycle/IPC aggregates for a consumer to average).
    if (is_attack) {
        row.insert(row.end(), 6, "");
    } else {
        row.push_back(
            std::to_string(static_cast<std::uint64_t>(sim.cycles)));
        row.push_back(CsvWriter::num(sim.ipc_sum));
        row.push_back(CsvWriter::num(sim.rbmpki));
        row.push_back(CsvWriter::num(sim.alerts_per_trefi));
        row.push_back(CsvWriter::num(sim.acts));
        row.push_back(has_baseline ? CsvWriter::num(norm_perf) : "");
    }
    // Attack families report through their attack.* counters, which
    // have no fixed column set; pack them as k=v pairs so the CSV
    // carries the full result (system rows leave the column empty —
    // their stats are the per-run stat dump, not row aggregates).
    std::string packed;
    if (is_attack)
        for (const auto& [name, value] : stats.entries()) {
            if (!packed.empty())
                packed += ';';
            packed += name + "=" + CsvWriter::num(value);
        }
    row.push_back(packed);
    return row;
}

// --- ScenarioRegistry -------------------------------------------------

namespace {

bool
mentionsProactive(const std::string& mitigation)
{
    return mitigation.find("proactive") != std::string::npos;
}

StatSet
runWaveScenario(const ScenarioConfig& cfg, obs::EventRecorder*,
                ctrl::SkipStats*)
{
    // Event-level model: no MemorySystem to instrument.
    attacks::WaveAttackConfig a;
    a.nbo = cfg.nbo;
    a.nmit = cfg.nmit;
    a.r1 = cfg.r1;
    if (cfg.psq_size > 0)
        a.psq_size = cfg.psq_size;
    a.ideal = cfg.mitigation.find("ideal") != std::string::npos;
    a.proactive = mentionsProactive(cfg.mitigation);
    attacks::WaveAttackResult r = attacks::simulateWaveAttack(a);
    StatSet s;
    s.set("attack.max_count", static_cast<double>(r.max_count));
    s.set("attack.rounds", static_cast<double>(r.rounds));
    s.set("attack.alerts", static_cast<double>(r.alerts));
    s.set("attack.total_acts", static_cast<double>(r.total_acts));
    s.set("attack.pool_after_setup",
          static_cast<double>(r.pool_after_setup));
    return s;
}

StatSet
runPerfScenario(const ScenarioConfig& cfg, obs::EventRecorder*,
                ctrl::SkipStats*)
{
    attacks::PerfAttackConfig a;
    a.nbo = cfg.nbo;
    a.nmit = cfg.nmit;
    if (cfg.attack_cycles)
        a.sim_cycles = static_cast<Cycle>(cfg.attack_cycles);
    a.proactive = mentionsProactive(cfg.mitigation);
    a.mitigation_enabled = cfg.mitigation != "none";
    attacks::PerfAttackResult r = attacks::runPerfAttack(a);
    StatSet s;
    s.set("attack.acts", static_cast<double>(r.acts));
    s.set("attack.alerts", static_cast<double>(r.alerts));
    s.set("attack.cycles", static_cast<double>(r.cycles));
    s.set("attack.acts_per_kcycle", r.actsPerKiloCycle());
    if (cfg.baseline)
        s.set("attack.bandwidth_loss_pct", attacks::bandwidthLossPct(a));
    return s;
}

StatSet
panopticonStats(const attacks::AttackOutcome& r)
{
    StatSet s;
    s.set("attack.target_unmitigated_acts",
          static_cast<double>(r.target_unmitigated_acts));
    s.set("attack.total_acts", static_cast<double>(r.total_acts));
    s.set("attack.alerts", static_cast<double>(r.alerts));
    s.set("attack.target_mitigated", r.target_was_mitigated ? 1.0 : 0.0);
    return s;
}

attacks::PanopticonAttackConfig
panopticonConfig(const ScenarioConfig& cfg)
{
    attacks::PanopticonAttackConfig a;
    if (cfg.psq_size > 0)
        a.queue_size = cfg.psq_size;
    a.nmit = cfg.nmit;
    return a;
}

/** Map the shared scenario knobs onto the recovery attack driver. */
attacks::RecoveryAttackConfig
recoveryAttackConfig(const ScenarioConfig& cfg, int attack_banks)
{
    attacks::RecoveryAttackConfig a;
    a.org.channels = cfg.channels;
    a.org.ranks = cfg.ranks;
    DesignSpec d = cfg.design();
    a.timing = d.timing;
    a.ctrl.abo = d.abo;
    a.ctrl.rfm_policy = d.rfm_policy;
    a.mitigation = d.factory;
    if (!dram::parseMappingScheme(cfg.mapping, &a.mapping))
        fatal(strCat("bad mapping scheme '", cfg.mapping, "'"));
    if (cfg.attack_cycles)
        a.attack_cycles = static_cast<Cycle>(cfg.attack_cycles);
    a.counter_update = cfg.experiment().counter_update;
    a.attack_banks = std::min(attack_banks, a.org.banksPerRank() - 1);
    a.skip = cfg.engine.skip != EngineToggle::Off;
    return a;
}

void
probeStatsTo(StatSet& s, const std::string& prefix,
             const attacks::ProbeStats& quiet,
             const attacks::ProbeStats& attacked)
{
    s.set(prefix + "_quiet_lat", quiet.mean());
    s.set(prefix + "_attack_lat", attacked.mean());
    s.set(prefix + "_probes",
          static_cast<double>(quiet.probes + attacked.probes));
}

StatSet
runRfmProbeScenario(const ScenarioConfig& cfg,
                    obs::EventRecorder* recorder, ctrl::SkipStats* skip)
{
    attacks::RecoveryAttackConfig a = recoveryAttackConfig(cfg, 1);
    a.recorder = recorder;
    attacks::RfmProbeResult r = attacks::runRfmProbeAttack(a);
    *skip = r.skip;
    StatSet s;
    s.set("attack.alerts", static_cast<double>(r.alerts));
    s.set("attack.rfms", static_cast<double>(r.rfms));
    s.set("attack.attacker_acts",
          static_cast<double>(r.attacker_acts));
    probeStatsTo(s, "attack.near", r.near_quiet, r.near_attack);
    probeStatsTo(s, "attack.far", r.far_quiet, r.far_attack);
    s.set("attack.near_excess", r.nearExcess());
    s.set("attack.far_excess", r.farExcess());
    s.set("attack.leakage_signal", r.leakageSignal());
    return s;
}

StatSet
runRecoveryDosScenario(const ScenarioConfig& cfg,
                       obs::EventRecorder* recorder, ctrl::SkipStats* skip)
{
    attacks::RecoveryAttackConfig a = recoveryAttackConfig(cfg, 8);
    a.recorder = recorder;
    attacks::RecoveryDosResult r = attacks::runRecoveryDosAttack(a);
    *skip = r.skip;
    StatSet s;
    s.set("attack.alerts", static_cast<double>(r.alerts));
    s.set("attack.rfms", static_cast<double>(r.rfms));
    s.set("attack.attacker_acts",
          static_cast<double>(r.attacker_acts));
    s.set("attack.peak_concurrent_recoveries",
          static_cast<double>(r.peak_concurrent_recoveries));
    probeStatsTo(s, "attack.victim", r.victim_quiet, r.victim_attack);
    s.set("attack.victim_slowdown", r.victimSlowdown());
    return s;
}

void
registerRecoveryAttacks(ScenarioRegistry& reg)
{
    const std::vector<std::string> keys = {
        "recovery", "channels", "ranks",   "mitigation",
        "psq_size", "nbo",      "nmit",    "mapping",
        "attack_cycles", "counter-update", "skip",
        "trace",    "trace-out", "metrics-interval"};
    reg.registerAttack(
        "rfm-probe",
        "cross-bank/cross-channel recovery timing channel "
        "(\"When Mitigations Backfire\")",
        {keys, /*multi_channel=*/true}, runRfmProbeScenario);
    reg.registerAttack(
        "recovery-dos",
        "worst-case multi-bank alert storm against recovery blocking "
        "(PRACtical)",
        {keys, /*multi_channel=*/true}, runRecoveryDosScenario);
}

} // namespace

ScenarioRegistry::ScenarioRegistry()
{
    registerAttack(
        "wave",
        "Wave/Feinting attack on QPRAC's bounded PSQ (paper §IV-A/B)",
        {{"nbo", "nmit", "psq_size", "mitigation", "r1"}, false},
        runWaveScenario);
    registerAttack(
        "perf",
        "multi-bank alert-storm performance attack (paper §VI-E)",
        {{"nbo", "nmit", "mitigation", "baseline", "attack_cycles"},
         false},
        runPerfScenario);
    registerAttack(
        "toggle-forget",
        "Toggle+Forget on t-bit FIFO PRAC (paper Fig 2)",
        {{"psq_size", "nmit"}, false},
        [](const ScenarioConfig& cfg, obs::EventRecorder*,
           ctrl::SkipStats*) {
            return panopticonStats(
                attacks::toggleForgetAttack(panopticonConfig(cfg)));
        });
    registerAttack(
        "fill-escape",
        "Fill+Escape on full-counter FIFO PRAC (paper Fig 3)",
        {{"psq_size", "nmit"}, false},
        [](const ScenarioConfig& cfg, obs::EventRecorder*,
           ctrl::SkipStats*) {
            return panopticonStats(
                attacks::fillEscapeAttack(panopticonConfig(cfg)));
        });
    registerAttack(
        "blocking-tbit",
        "blocking t-bit variant, ABO_ACT cannot toggle (paper Fig 23)",
        {{"psq_size", "nmit"}, false},
        [](const ScenarioConfig& cfg, obs::EventRecorder*,
           ctrl::SkipStats*) {
            return panopticonStats(
                attacks::blockingTbitAttack(panopticonConfig(cfg)));
        });
    registerRecoveryAttacks(*this);
}

ScenarioRegistry&
ScenarioRegistry::instance()
{
    static ScenarioRegistry registry;
    return registry;
}

bool
ScenarioRegistry::has(const std::string& source) const
{
    SourceKind kind;
    std::string name;
    if (!parseSource(source, &kind, &name))
        return false;
    switch (kind) {
    case SourceKind::Workload:
        return hasWorkload(name);
    case SourceKind::TraceFile:
        return !name.empty();
    case SourceKind::Attack:
        return attacks_.count(name) > 0;
    }
    return false;
}

std::vector<ScenarioRegistry::SourceInfo>
ScenarioRegistry::sources() const
{
    std::vector<SourceInfo> out;
    for (const auto& w : workloadSuite())
        out.push_back({strCat(kWorkloadPrefix, w.name),
                       SourceKind::Workload,
                       strCat(w.suite, " profile, ~",
                              static_cast<int>(w.expectedRbmpki()),
                              " RBMPKI"),
                       {}});
    for (const auto& name : attack_order_) {
        const AttackEntry& e = attacks_.at(name);
        out.push_back({strCat(kAttackPrefix, name), SourceKind::Attack,
                       e.description, e.options.keys});
    }
    return out;
}

void
ScenarioRegistry::registerAttack(const std::string& name,
                                 const std::string& description,
                                 AttackOptions options, AttackRunner run)
{
    for (const auto& key : options.keys)
        QP_ASSERT(findScenarioKey(key), "attack '", name,
                  "' lists unknown scenario key '", key, "'");
    if (!attacks_.count(name))
        attack_order_.push_back(name);
    attacks_[name] =
        AttackEntry{description, std::move(options), std::move(run)};
}

bool
ScenarioRegistry::attackSupportsChannels(const std::string& name) const
{
    auto it = attacks_.find(name);
    return it != attacks_.end() && it->second.options.multi_channel;
}

ScenarioResult
ScenarioRegistry::run(const ScenarioConfig& cfg, int thread_budget) const
{
    std::string err;
    if (!cfg.validate(&err))
        fatal(strCat("invalid scenario: ", err));

    ScenarioResult res;
    res.config = cfg;

    // Observability hub (hash-excluded keys; result-neutral). Only the
    // primary run is instrumented — a `baseline=true` companion run
    // would interleave a second machine's events into the same lanes.
    std::uint32_t trace_mask = 0;
    {
        std::string mask_err;
        if (!obs::parseCategoryMask(cfg.trace, &trace_mask, &mask_err))
            fatal(strCat("invalid scenario: trace: ", mask_err));
    }
    std::unique_ptr<obs::EventRecorder> recorder;
    if (trace_mask != 0 || cfg.metrics_interval != 0) {
        obs::RecorderConfig rc;
        rc.mask = trace_mask;
        rc.metrics_interval = static_cast<Cycle>(cfg.metrics_interval);
        recorder =
            std::make_unique<obs::EventRecorder>(rc, cfg.channels);
    }
    auto finishObs = [&] {
        if (!recorder)
            return;
        res.obs = recorder->summary();
        if (recorder->tracing()) {
            // Default path keyed by the scenario hash: sweep points
            // racing on one directory never collide (and identical
            // configs produce identical traces anyway).
            const std::string path =
                cfg.trace_out.empty()
                    ? strCat("qprac_trace-", scenarioHashHex(cfg),
                             ".json")
                    : cfg.trace_out;
            std::string werr;
            if (recorder->writeTrace(path, &werr))
                res.obs->trace_path = path;
            else
                warn(strCat("trace not written: ", werr));
        }
    };

    if (cfg.sourceKind() == SourceKind::Attack) {
        auto it = attacks_.find(cfg.sourceName());
        if (it == attacks_.end())
            fatal(strCat("unknown attack scenario '", cfg.source, "'"));
        res.is_attack = true;
        // Timing and skip counters stay beside the result, as for
        // system runs.
        const auto start = std::chrono::steady_clock::now();
        res.stats = it->second.run(cfg, recorder.get(), &res.sim.skip);
        res.sim.wall_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        finishObs();
        return res;
    }

    ExperimentConfig ecfg = cfg.experiment();
    if (thread_budget > 0)
        ecfg.threads = thread_budget;
    DesignSpec d = cfg.design();
    {
        SystemConfig sys = makeSystemConfig(d, ecfg);
        sys.recorder = recorder.get();
        System system(sys, d.factory, buildScenarioTraces(cfg));
        res.sim = system.run();
    }
    finishObs();
    res.stats = res.sim.stats;
    if (cfg.baseline) {
        // The insecure baseline: no ABO, no mitigation, primary (PRAC)
        // timings — exactly the reference qprac_sim --baseline ran
        // before the redesign (bit-identity is golden-pinned). Note
        // this deliberately does NOT honour DesignSpec::baseline_key:
        // for pride/mithril the design runs conventional DDR5 timings
        // while this baseline keeps PRAC timings, so norm_perf mixes
        // timing and mitigation effects. Use runComparison for the
        // paper's per-timing-key normalization (Fig 20 methodology).
        DesignSpec base;
        base.label = "baseline";
        base.abo.enabled = false;
        SystemConfig sys = makeSystemConfig(base, ecfg);
        System system(sys, base.factory, buildScenarioTraces(cfg));
        res.baseline_sim = system.run();
        res.has_baseline = true;
        res.norm_perf = res.baseline_sim.ipc_sum > 0
                            ? res.sim.ipc_sum / res.baseline_sim.ipc_sum
                            : 0.0;
    }
    return res;
}

ScenarioResult
runScenario(const ScenarioConfig& cfg, int thread_budget)
{
    return ScenarioRegistry::instance().run(cfg, thread_budget);
}

// --- Sweeps -----------------------------------------------------------

bool
SweepAxis::parse(const std::string& text, SweepAxis* out, std::string* err)
{
    auto fail = [&](const std::string& why) {
        if (err)
            *err = strCat("sweep '", text, "': ", why);
        return false;
    };
    std::size_t eq = text.find('=');
    if (eq == std::string::npos)
        return fail("expected key=values");
    std::string key = trimmed(text.substr(0, eq));
    std::string rest = trimmed(text.substr(eq + 1));
    if (!findScenarioKey(key))
        return fail(strCat("unknown config key '", key, "'"));
    if (rest.empty())
        return fail("empty value list");

    SweepAxis axis;
    axis.key = key;

    // "lo:hi" / "lo:hi:step" integer ranges; anything else is a comma
    // list (so trace paths containing ':' still work as list values).
    std::vector<std::string> colon_parts;
    {
        std::size_t start = 0;
        while (true) {
            std::size_t c = rest.find(':', start);
            if (c == std::string::npos) {
                colon_parts.push_back(rest.substr(start));
                break;
            }
            colon_parts.push_back(rest.substr(start, c - start));
            start = c + 1;
        }
    }
    if (colon_parts.size() == 2 || colon_parts.size() == 3) {
        std::int64_t lo = 0, hi = 0, step = 1;
        bool ints = parseI64(colon_parts[0], &lo) &&
                    parseI64(colon_parts[1], &hi) &&
                    (colon_parts.size() == 2 ||
                     parseI64(colon_parts[2], &step));
        if (ints) {
            if (step < 1)
                return fail("range step must be >= 1");
            if (lo > hi)
                return fail("range low end exceeds high end");
            // Unsigned span arithmetic: correct for any int64 pair
            // with hi >= lo, no signed overflow. Bound the axis before
            // materializing anything — a typo'd range must fail
            // loudly, not eat all memory. The guard compares span/step
            // (not span/step + 1, which wraps to 0 for a full-int64
            // span at step 1).
            std::uint64_t span = static_cast<std::uint64_t>(hi) -
                                 static_cast<std::uint64_t>(lo);
            constexpr std::uint64_t kMaxRangePoints = 100'000;
            if (span / static_cast<std::uint64_t>(step) >=
                kMaxRangePoints)
                return fail(strCat("range enumerates more than ",
                                   kMaxRangePoints, " values"));
            std::uint64_t count =
                span / static_cast<std::uint64_t>(step) + 1;
            std::int64_t v = lo;
            for (std::uint64_t i = 0; i < count; ++i) {
                axis.values.push_back(std::to_string(v));
                // lo + (count-1)*step <= hi, so the increments taken
                // here never pass hi and cannot overflow.
                if (i + 1 < count)
                    v += step;
            }
            *out = axis;
            return true;
        }
    }

    std::size_t start = 0;
    while (start <= rest.size()) {
        std::size_t comma = rest.find(',', start);
        std::string item =
            trimmed(comma == std::string::npos
                        ? rest.substr(start)
                        : rest.substr(start, comma - start));
        if (item.empty())
            return fail("empty value in list");
        axis.values.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    *out = axis;
    return true;
}

bool
SweepSpec::add(const std::string& text, std::string* err)
{
    SweepAxis axis;
    if (!SweepAxis::parse(text, &axis, err))
        return false;
    // A duplicate key would enumerate a grid where the later axis
    // silently overwrites the earlier one's override on every point
    // (mislabeled rows, duplicate JSON keys).
    for (const auto& existing : axes)
        if (existing.key == axis.key) {
            if (err)
                *err = strCat("sweep '", text, "': duplicate axis '",
                              axis.key, "'");
            return false;
        }
    axes.push_back(std::move(axis));
    return true;
}

std::size_t
SweepSpec::points() const
{
    std::size_t n = 1;
    for (const auto& axis : axes)
        n *= axis.values.size();
    return n;
}

std::vector<std::vector<std::pair<std::string, std::string>>>
SweepSpec::enumerate() const
{
    std::vector<std::vector<std::pair<std::string, std::string>>> out;
    out.emplace_back(); // the base point: no overrides
    for (const auto& axis : axes) {
        std::vector<std::vector<std::pair<std::string, std::string>>> next;
        for (const auto& point : out) {
            for (const auto& value : axis.values) {
                auto extended = point;
                extended.emplace_back(axis.key, value);
                next.push_back(std::move(extended));
            }
        }
        out = std::move(next);
    }
    return out;
}

namespace {

/**
 * Run one point in a fresh qprac_sim child process: every config key
 * is handed over as a `--set` (the INI round-trip guarantees the
 * canonical forms re-parse), the child's `--json` document comes back
 * over a pipe, and its `result` object is reconstructed. Any child
 * death — a fatal() config error, a crash, a kill — comes back as
 * false with a one-line diagnosis instead of taking down the sweep.
 */
bool
runIsolatedPoint(const ScenarioConfig& cfg, const std::string& exe,
                 int inner_threads, ScenarioResult* out,
                 std::string* err)
{
    // The child gets this point's shard-thread share; threads is
    // result-neutral by the determinism contract.
    ScenarioConfig child = cfg;
    child.threads = inner_threads;
    std::vector<std::string> args;
    for (const auto& row : scenarioKeyTable()) {
        args.push_back("--set");
        args.push_back(strCat(row.name, "=", row.field.print(child)));
    }
    args.push_back("--json");

    SubprocessResult r = runCaptureStdout(exe, args);
    if (!r.ran) {
        *err = strCat("point failed: spawn: ", r.spawn_error);
        return false;
    }
    if (r.exit_code != 0) {
        // Surface the child's first stderr line (fatal() prints one).
        std::string detail = trimmed(r.err);
        std::size_t nl = detail.find('\n');
        if (nl != std::string::npos)
            detail = detail.substr(0, nl);
        *err = strCat("point failed: exit status ", r.exit_code,
                      detail.empty() ? "" : strCat(": ", detail));
        return false;
    }
    JsonValue doc;
    std::string jerr;
    if (!jsonParse(trimmed(r.out), &doc, &jerr)) {
        *err = strCat("point failed: bad child JSON: ", jerr);
        return false;
    }
    const JsonValue* result = doc.find("result");
    if (!result) {
        *err = "point failed: child JSON has no result object";
        return false;
    }
    if (!ScenarioResult::fromResultJson(*result, cfg, out, err)) {
        *err = strCat("point failed: ", *err);
        return false;
    }
    return true;
}

} // namespace

std::vector<SweepPointResult>
runSweep(const ScenarioConfig& base, const SweepSpec& spec,
         std::string* err)
{
    return runSweep(base, spec, SweepOptions{}, err, nullptr);
}

std::vector<SweepPointResult>
runSweep(const ScenarioConfig& base, const SweepSpec& spec,
         const SweepOptions& options, std::string* err,
         SweepCounters* counters)
{
    auto points = spec.enumerate();

    std::string exe = options.isolate_exe;
    if (options.isolate && exe.empty()) {
        exe = selfExePath();
        if (exe.empty()) {
            if (err)
                *err = "process isolation unavailable: cannot resolve "
                       "the running executable";
            return {};
        }
    }

    // Materialize and validate every point's config up front so a bad
    // override fails fast instead of mid-sweep. Under isolation the
    // contract flips: a bad point must not take down the grid, so it
    // becomes a recorded failure and the rest still runs.
    std::vector<ScenarioConfig> configs(points.size());
    std::vector<SweepPointResult> results(points.size());
    std::vector<char> runnable(points.size(), 1);
    for (std::size_t i = 0; i < points.size(); ++i) {
        results[i].overrides = points[i];
        ScenarioConfig cfg = base;
        std::string point_err;
        bool ok = true;
        for (const auto& [key, value] : points[i])
            if (!cfg.set(key, value, &point_err)) {
                ok = false;
                break;
            }
        if (ok && !cfg.validate(&point_err))
            ok = false;
        if (!ok) {
            if (!options.isolate) {
                if (err)
                    *err = point_err;
                return {};
            }
            results[i].failed = true;
            results[i].error = strCat("point failed: ", point_err);
            runnable[i] = 0;
            continue;
        }
        configs[i] = std::move(cfg);
        results[i].hash = scenarioHashHex(configs[i]);
    }

    const int threads =
        base.threads ? base.threads : ExperimentConfig::defaultThreads();
    // Sweep x shard thread budgeting: the points fan out across the
    // whole budget and each concurrently-running point gets an equal
    // slice for its shard engine.
    const int inner = innerThreadBudget(
        threads,
        std::min<std::size_t>(results.size(),
                              static_cast<std::size_t>(
                                  std::max(1, threads))));
    parallelFor(results.size(), threads, [&](std::size_t i) {
        if (!runnable[i])
            return;
        const auto start = std::chrono::steady_clock::now();
        auto elapsedMs = [&] {
            return std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                .count();
        };
        if (options.cache &&
            options.cache->lookup(configs[i], &results[i].result)) {
            // A hit reports the lookup cost, never the cached run's
            // wall clock, and no engine throughput (nothing ran).
            results[i].cached = true;
            results[i].wall_ms = elapsedMs();
            return;
        }
        if (options.isolate) {
            std::string point_err;
            if (!runIsolatedPoint(configs[i], exe, inner,
                                  &results[i].result, &point_err)) {
                results[i].failed = true;
                results[i].error = std::move(point_err);
                results[i].result = ScenarioResult{};
                results[i].wall_ms = elapsedMs();
                return;
            }
        } else {
            results[i].result = runScenario(configs[i], inner);
        }
        results[i].wall_ms = elapsedMs();
        if (!results[i].result.is_attack && results[i].wall_ms > 0.0)
            results[i].sim_cycles_per_sec =
                static_cast<double>(results[i].result.sim.cycles) /
                (results[i].wall_ms / 1000.0);
        if (options.cache)
            options.cache->store(configs[i], results[i].result);
    });

    if (counters) {
        SweepCounters c;
        c.points = results.size();
        for (const auto& r : results) {
            if (r.failed)
                ++c.failed;
            else if (r.cached)
                ++c.hits;
            else
                ++c.computed;
        }
        if (options.cache)
            c.stored = options.cache->counters().stored;
        *counters = c;
    }
    return results;
}

} // namespace qprac::sim
