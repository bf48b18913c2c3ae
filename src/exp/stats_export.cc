#include "exp/stats_export.hh"

#include "prof/phase.hh"

namespace persim::exp
{

JsonValue
distributionToJson(const Distribution &d)
{
    JsonValue out = JsonValue::object();
    out.reserve(9);
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
    out.reserve(groups.size());
    for (const StatGroup *g : groups) {
        JsonValue scalars = JsonValue::object();
        scalars.reserve(g->scalars().size());
        for (const Scalar *s : g->scalars())
            scalars.append(s->name(), JsonValue(s->value()));
        JsonValue dists = JsonValue::object();
        dists.reserve(g->distributions().size());
        for (const Distribution *d : g->distributions())
            dists.append(d->name(), distributionToJson(*d));
        JsonValue &entry = out.append(g->name(), JsonValue::object());
        entry.reserve(2);
        entry.append("scalars", std::move(scalars));
        entry.append("distributions", std::move(dists));
    }
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
