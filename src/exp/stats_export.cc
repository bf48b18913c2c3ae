#include "exp/stats_export.hh"

#include <type_traits>

#include "prof/phase.hh"

namespace persim::exp
{

JsonValue
distributionToJson(const Distribution &d)
{
    JsonValue out = JsonValue::object();
    out.append("count", JsonValue(d.count()));
    out.append("mean", JsonValue(d.mean()));
    out.append("stdev", JsonValue(d.stdev()));
    out.append("min", JsonValue(d.min()));
    out.append("max", JsonValue(d.max()));
    out.append("sum", JsonValue(d.sum()));
    out.append("p50", JsonValue(d.p50()));
    out.append("p95", JsonValue(d.p95()));
    out.append("p99", JsonValue(d.p99()));
    return out;
}

JsonValue
statGroupsToJson(const std::vector<const StatGroup *> &groups)
{
    prof::ScopedPhase profPhase(prof::Phase::StatExport);
    // Group names, and stat names within a group, are unique (System
    // names every component once; tests check it), so members append
    // without operator[]'s duplicate scan — the mesh group alone
    // carries ~500 scalars.
    JsonValue out = JsonValue::object();
    for (const StatGroup *g : groups) {
        JsonValue scalars = JsonValue::object();
        for (const Scalar *s : g->scalars())
            scalars.append(s->name(), JsonValue(s->value()));
        JsonValue dists = JsonValue::object();
        for (const Distribution *d : g->distributions())
            dists.append(d->name(), distributionToJson(*d));
        JsonValue &entry = out.append(g->name(), JsonValue::object());
        entry.append("scalars", std::move(scalars));
        entry.append("distributions", std::move(dists));
    }
    return out;
}

JsonValue
flatStatsToJson(const std::map<std::string, double> &stats)
{
    JsonValue out = JsonValue::object();
    for (const auto &[k, v] : stats)
        out.append(k, JsonValue(v));
    return out;
}

JsonValue
simResultToJson(const model::SimResult &res)
{
    JsonValue out = JsonValue::object();
    out["completed"] = JsonValue(res.completed);
    out["deadlocked"] = JsonValue(res.deadlocked);
    out["timedOut"] = JsonValue(res.timedOut);
    out["execTicks"] = JsonValue(res.execTicks);
    out["drainTicks"] = JsonValue(res.drainTicks);
    out["events"] = JsonValue(res.events);
    out["transactions"] = JsonValue(res.transactions);
    out["throughput"] = JsonValue(res.throughput());
    JsonValue viol = JsonValue::array();
    for (const std::string &v : res.violations)
        viol.push(JsonValue(v));
    out["violations"] = std::move(viol);
    return out;
}

model::SimResult
simResultFromJson(const JsonValue &j)
{
    model::SimResult res;
    auto boolAt = [&](const char *key, bool &out) {
        if (const JsonValue *v = j.get(key))
            out = v->asBool();
    };
    auto u64At = [&](const char *key, auto &out) {
        if (const JsonValue *v = j.get(key))
            out = static_cast<std::remove_reference_t<decltype(out)>>(
                v->asNumber());
    };
    boolAt("completed", res.completed);
    boolAt("deadlocked", res.deadlocked);
    boolAt("timedOut", res.timedOut);
    u64At("execTicks", res.execTicks);
    u64At("drainTicks", res.drainTicks);
    u64At("events", res.events);
    u64At("transactions", res.transactions);
    if (const JsonValue *viol = j.get("violations"))
        for (std::size_t i = 0; i < viol->size(); ++i)
            res.violations.push_back(viol->at(i).asString());
    return res;
}

std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

void
writeCsv(std::ostream &os, const std::vector<std::string> &header,
         const std::vector<std::vector<std::string>> &rows)
{
    auto writeRow = [&os](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i)
                os << ',';
            os << csvField(row[i]);
        }
        os << '\n';
    };
    writeRow(header);
    for (const auto &row : rows)
        writeRow(row);
}

} // namespace persim::exp
