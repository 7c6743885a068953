#include "obs/obs.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>

#include "common/json.h"
#include "common/log.h"
#include "common/stats.h"
#include "common/table.h"

namespace qprac::obs {

namespace {

constexpr const char* kCategoryNames[kNumCategories] = {
    "cmd", "refresh", "abo", "rfm", "recovery", "psq", "attack",
};

int
categoryIndex(std::uint32_t cat)
{
    for (int i = 0; i < kNumCategories; ++i)
        if (cat == (1u << i))
            return i;
    return 0;
}

} // namespace

const char*
categoryName(int index)
{
    QP_ASSERT(index >= 0 && index < kNumCategories, "category index");
    return kCategoryNames[index];
}

bool
parseCategoryMask(const std::string& text, std::uint32_t* mask,
                  std::string* err)
{
    if (text.empty() || text == "off" || text == "none") {
        *mask = 0;
        return true;
    }
    if (text == "all" || text == "on") {
        *mask = kAllCategories;
        return true;
    }
    std::uint32_t m = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string tok = text.substr(pos, comma - pos);
        bool found = false;
        for (int i = 0; i < kNumCategories; ++i) {
            if (tok == kCategoryNames[i]) {
                m |= 1u << i;
                found = true;
                break;
            }
        }
        if (!found) {
            if (err)
                *err = strCat("unknown trace category '", tok,
                              "' (expected off|all|",
                              "cmd,refresh,abo,rfm,recovery,psq,attack)");
            return false;
        }
        pos = comma + 1;
        if (comma == text.size())
            break;
    }
    *mask = m;
    return true;
}

std::string
categoryMaskToString(std::uint32_t mask)
{
    mask &= kAllCategories;
    if (mask == 0)
        return "off";
    if (mask == kAllCategories)
        return "all";
    std::string out;
    for (int i = 0; i < kNumCategories; ++i) {
        if (!(mask & (1u << i)))
            continue;
        if (!out.empty())
            out += ',';
        out += kCategoryNames[i];
    }
    return out;
}

// --- EventSink -------------------------------------------------------------

EventSink::EventSink(std::uint32_t mask, std::size_t capacity)
    : mask_(mask), ring_(std::max<std::size_t>(capacity, 1))
{
}

std::vector<std::pair<std::uint64_t, Event>>
EventSink::drain() const
{
    std::vector<std::pair<std::uint64_t, Event>> out;
    const std::uint64_t cap = static_cast<std::uint64_t>(ring_.size());
    const std::uint64_t kept = std::min(total_, cap);
    out.reserve(static_cast<std::size_t>(kept));
    const std::uint64_t first_seq = total_ - kept;
    for (std::uint64_t i = 0; i < kept; ++i) {
        const std::uint64_t seq = first_seq + i;
        out.emplace_back(seq,
                         ring_[static_cast<std::size_t>(seq % cap)]);
    }
    return out;
}

// --- Histogram -------------------------------------------------------------

namespace {

int
log2Bucket(std::uint64_t value)
{
    int b = 0;
    while (value) {
        ++b;
        value >>= 1;
    }
    return std::min(b, Histogram::kBuckets - 1);
}

} // namespace

void
Histogram::record(std::uint64_t value)
{
    ++buckets_[log2Bucket(value)];
    ++count_;
    sum_ += value;
    max_ = std::max(max_, value);
}

void
Histogram::merge(const Histogram& other)
{
    for (int i = 0; i < kBuckets; ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    max_ = std::max(max_, other.max_);
}

std::uint64_t
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    const std::uint64_t rank = static_cast<std::uint64_t>(
        percentileRank(static_cast<std::size_t>(count_), p));
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
        seen += buckets_[b];
        if (seen > rank) {
            // Bucket upper edge; bucket 0 holds only the value 0. Never
            // report past the observed maximum.
            const std::uint64_t edge =
                b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
            return std::min(edge, max_);
        }
    }
    return max_;
}

// --- EventRecorder ---------------------------------------------------------

const std::vector<std::string>&
metricsTrackNames()
{
    static const std::vector<std::string> tracks = {
        "psq_occupancy", "max_prac_count", "raa", "read_queue",
    };
    return tracks;
}

EventRecorder::EventRecorder(const RecorderConfig& cfg, int num_shards)
    : cfg_(cfg), num_shards_(num_shards)
{
    QP_ASSERT(num_shards_ >= 1, "EventRecorder needs >= 1 shard");
    if (tracing()) {
        sinks_.reserve(static_cast<std::size_t>(num_shards_) + 1);
        for (int i = 0; i <= num_shards_; ++i)
            sinks_.push_back(std::make_unique<EventSink>(
                cfg_.mask, cfg_.ring_capacity));
    }
    if (metricsEnabled()) {
        metrics_.reserve(static_cast<std::size_t>(num_shards_));
        for (int i = 0; i < num_shards_; ++i) {
            auto m = std::make_unique<ShardMetrics>();
            m->interval = cfg_.metrics_interval;
            m->next_sample_at = 0;
            m->series = TimeSeries(metricsTrackNames());
            metrics_.push_back(std::move(m));
        }
    }
}

EventSink*
EventRecorder::sink(int shard)
{
    if (!tracing())
        return nullptr;
    QP_ASSERT(shard >= 0 && shard <= num_shards_, "sink shard out of range");
    return sinks_[static_cast<std::size_t>(shard)].get();
}

ShardMetrics*
EventRecorder::metrics(int shard)
{
    if (!metricsEnabled())
        return nullptr;
    QP_ASSERT(shard >= 0 && shard < num_shards_,
              "metrics shard out of range");
    return metrics_[static_cast<std::size_t>(shard)].get();
}

std::uint64_t
EventRecorder::totalRecorded() const
{
    std::uint64_t n = 0;
    for (const auto& s : sinks_)
        n += s->total();
    return n;
}

std::uint64_t
EventRecorder::totalDropped() const
{
    std::uint64_t n = 0;
    for (const auto& s : sinks_)
        n += s->dropped();
    return n;
}

std::vector<EventRecorder::MergedEvent>
EventRecorder::merged() const
{
    std::vector<MergedEvent> all;
    for (int shard = 0; shard < static_cast<int>(sinks_.size()); ++shard) {
        for (const auto& [seq, e] :
             sinks_[static_cast<std::size_t>(shard)]->drain())
            all.push_back(MergedEvent{shard, seq, e});
    }
    std::sort(all.begin(), all.end(),
              [](const MergedEvent& a, const MergedEvent& b) {
                  if (a.e.cycle != b.e.cycle)
                      return a.e.cycle < b.e.cycle;
                  if (a.shard != b.shard)
                      return a.shard < b.shard;
                  return a.seq < b.seq;
              });
    return all;
}

std::string
EventRecorder::toPerfettoJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("traceEvents").beginArray();

    // Lane naming metadata: one Perfetto thread per channel plus the
    // driver lane.
    for (int shard = 0; shard < static_cast<int>(sinks_.size()); ++shard) {
        w.beginObject();
        w.key("ph").value("M");
        w.key("name").value("thread_name");
        w.key("pid").value(0);
        w.key("tid").value(shard);
        w.key("args").beginObject();
        w.key("name").value(shard == num_shards_
                                ? std::string("driver")
                                : strCat("ch", shard));
        w.endObject();
        w.endObject();
    }

    for (const MergedEvent& m : merged()) {
        w.beginObject();
        w.key("ph").value(m.e.dur > 0 ? "X" : "i");
        w.key("name").value(m.e.name);
        w.key("cat").value(kCategoryNames[categoryIndex(m.e.cat)]);
        w.key("pid").value(0);
        w.key("tid").value(m.shard);
        w.key("ts").value(m.e.cycle);
        if (m.e.dur > 0)
            w.key("dur").value(m.e.dur);
        else
            w.key("s").value("t");
        if (m.e.k0 || m.e.k1) {
            w.key("args").beginObject();
            if (m.e.k0)
                w.key(m.e.k0).value(m.e.v0);
            if (m.e.k1)
                w.key(m.e.k1).value(m.e.v1);
            w.endObject();
        }
        w.endObject();
    }

    // Counter tracks from the time-series sampler (one multi-series
    // counter event per sample row).
    for (int shard = 0; shard < static_cast<int>(metrics_.size()); ++shard) {
        const ShardMetrics& m = *metrics_[static_cast<std::size_t>(shard)];
        const auto& tracks = m.series.tracks();
        for (const TimeSeries::Row& row : m.series.rows()) {
            w.beginObject();
            w.key("ph").value("C");
            w.key("name").value("metrics");
            w.key("pid").value(0);
            w.key("tid").value(shard);
            w.key("ts").value(row.cycle);
            w.key("args").beginObject();
            for (std::size_t t = 0; t < tracks.size(); ++t)
                w.key(tracks[t]).value(row.values[t]);
            w.endObject();
            w.endObject();
        }
    }

    w.endArray();
    w.key("displayTimeUnit").value("ns");
    w.key("otherData").beginObject();
    w.key("format").value("qprac-trace-v1");
    w.key("time_unit").value("dram-command-cycles");
    w.key("events").value(totalRecorded());
    w.key("dropped").value(totalDropped());
    w.key("droppedPerLane").beginArray();
    for (const auto& s : sinks_)
        w.value(s->dropped());
    w.endArray();
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
EventRecorder::toCsv() const
{
    std::string out = "shard,seq,cycle,dur,category,name,k0,v0,k1,v1\n";
    for (const MergedEvent& m : merged()) {
        out += strCat(m.shard, ",", m.seq, ",", m.e.cycle, ",", m.e.dur,
                      ",", kCategoryNames[categoryIndex(m.e.cat)], ",",
                      m.e.name, ",", m.e.k0 ? m.e.k0 : "", ",",
                      m.e.k0 ? strCat(m.e.v0) : "", ",",
                      m.e.k1 ? m.e.k1 : "", ",",
                      m.e.k1 ? strCat(m.e.v1) : "", "\n");
    }
    out += strCat("# events=", totalRecorded(), " dropped=", totalDropped(),
                  "\n");
    return out;
}

bool
EventRecorder::writeTrace(const std::string& path, std::string* err) const
{
    const bool csv =
        path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
    const std::string body = csv ? toCsv() : toPerfettoJson();

    static std::atomic<unsigned> tmp_counter{0};
    const std::string tmp =
        strCat(path, ".tmp", tmp_counter.fetch_add(1));
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f) {
            if (err)
                *err = strCat("cannot open '", tmp, "' for writing");
            return false;
        }
        f << body;
        if (!f) {
            if (err)
                *err = strCat("short write to '", tmp, "'");
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        if (err)
            *err = strCat("cannot rename '", tmp, "' to '", path, "'");
        return false;
    }
    return true;
}

std::shared_ptr<RunSummary>
EventRecorder::summary() const
{
    auto s = std::make_shared<RunSummary>();
    s->mask = cfg_.mask;
    s->metrics_interval = cfg_.metrics_interval;
    s->events = totalRecorded();
    s->dropped = totalDropped();
    for (const auto& sink : sinks_) {
        for (const auto& [seq, e] : sink->drain()) {
            (void)seq;
            ++s->per_category[categoryIndex(e.cat)];
        }
    }
    if (metricsEnabled()) {
        const auto& names = metricsTrackNames();
        s->tracks.resize(names.size());
        std::vector<std::int64_t> sums(names.size(), 0);
        for (std::size_t t = 0; t < names.size(); ++t)
            s->tracks[t].name = names[t];
        for (const auto& m : metrics_) {
            s->read_latency.merge(m->read_latency);
            for (const TimeSeries::Row& row : m->series.rows()) {
                for (std::size_t t = 0; t < names.size(); ++t) {
                    RunSummary::Track& tr = s->tracks[t];
                    const std::int64_t v = row.values[t];
                    if (tr.samples == 0) {
                        tr.min = tr.max = v;
                    } else {
                        tr.min = std::min(tr.min, v);
                        tr.max = std::max(tr.max, v);
                    }
                    tr.last = v;
                    sums[t] += v;
                    ++tr.samples;
                }
            }
        }
        for (std::size_t t = 0; t < names.size(); ++t)
            if (s->tracks[t].samples)
                s->tracks[t].mean =
                    static_cast<double>(sums[t]) /
                    static_cast<double>(s->tracks[t].samples);
    }
    return s;
}

// --- RunSummary ------------------------------------------------------------

std::string
RunSummary::report() const
{
    std::string out = "--- metrics ---\n";
    if (mask != 0) {
        out += strCat("trace: categories=", categoryMaskToString(mask),
                      " events=", events, " dropped=", dropped, "\n");
        Table cats({"category", "events"});
        for (int i = 0; i < kNumCategories; ++i)
            if (per_category[i])
                cats.addRow({kCategoryNames[i], strCat(per_category[i])});
        out += cats.toString();
        if (!trace_path.empty())
            out += strCat("trace written: ", trace_path, "\n");
    } else {
        out += "trace: off\n";
    }
    if (metrics_interval == 0) {
        out += "metrics sampling: off (set metrics-interval=N)\n";
        return out;
    }
    out += strCat("sampling interval: ", metrics_interval, " cycles\n");
    Table series({"series", "samples", "min", "mean", "max", "last"});
    for (const Track& t : tracks)
        series.addRow({t.name, strCat(t.samples), strCat(t.min),
                       Table::num(t.mean, 2), strCat(t.max),
                       strCat(t.last)});
    out += series.toString();
    Table lat({"histogram", "count", "mean", "p50", "p95", "p99", "max"});
    lat.addRow({"read_latency", strCat(read_latency.count()),
                Table::num(read_latency.mean(), 1),
                strCat(read_latency.percentile(50.0)),
                strCat(read_latency.percentile(95.0)),
                strCat(read_latency.percentile(99.0)),
                strCat(read_latency.max())});
    out += lat.toString();
    return out;
}

void
RunSummary::toJson(JsonWriter& w) const
{
    w.beginObject();
    w.key("trace").value(categoryMaskToString(mask));
    w.key("events").value(events);
    w.key("dropped").value(dropped);
    w.key("per_category").beginObject();
    for (int i = 0; i < kNumCategories; ++i)
        w.key(kCategoryNames[i]).value(per_category[i]);
    w.endObject();
    w.key("metrics_interval").value(metrics_interval);
    w.key("series").beginObject();
    for (const Track& t : tracks) {
        w.key(t.name).beginObject();
        w.key("samples").value(t.samples);
        w.key("min").value(t.min);
        w.key("mean").value(t.mean);
        w.key("max").value(t.max);
        w.key("last").value(t.last);
        w.endObject();
    }
    w.endObject();
    w.key("read_latency").beginObject();
    w.key("count").value(read_latency.count());
    w.key("mean").value(read_latency.mean());
    w.key("p50").value(read_latency.percentile(50.0));
    w.key("p95").value(read_latency.percentile(95.0));
    w.key("p99").value(read_latency.percentile(99.0));
    w.key("max").value(read_latency.max());
    w.endObject();
    if (!trace_path.empty())
        w.key("trace_path").value(trace_path);
    w.endObject();
}

} // namespace qprac::obs
