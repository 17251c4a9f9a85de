#include "base/options.hh"

#include <cstdlib>

#include "base/logging.hh"

namespace minnow
{

Options::Options(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i)
        addArg(argv[i]);
}

Options::Options(const std::vector<std::string> &args)
{
    for (const auto &arg : args)
        addArg(arg);
}

void
Options::addArg(const std::string &arg)
{
    if (arg.rfind("--", 0) != 0) {
        positional_.push_back(arg);
        return;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq == std::string::npos) {
        values_[body] = "true";
    } else {
        values_[body.substr(0, eq)] = body.substr(eq + 1);
    }
}

bool
Options::has(const std::string &key) const
{
    if (values_.count(key)) {
        used_.insert(key);
        return true;
    }
    return false;
}

std::string
Options::getString(const std::string &key, const std::string &dflt) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return dflt;
    used_.insert(key);
    return it->second;
}

std::int64_t
Options::getInt(const std::string &key, std::int64_t dflt) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return dflt;
    used_.insert(key);
    char *end = nullptr;
    std::int64_t v = std::strtoll(it->second.c_str(), &end, 0);
    fatal_if(end == it->second.c_str() || *end != '\0',
             "option --%s=%s is not an integer", key.c_str(),
             it->second.c_str());
    return v;
}

std::uint64_t
Options::getUint(const std::string &key, std::uint64_t dflt) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return dflt;
    used_.insert(key);
    char *end = nullptr;
    std::uint64_t v = std::strtoull(it->second.c_str(), &end, 0);
    fatal_if(end == it->second.c_str() || *end != '\0',
             "option --%s=%s is not an unsigned integer", key.c_str(),
             it->second.c_str());
    return v;
}

double
Options::getDouble(const std::string &key, double dflt) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return dflt;
    used_.insert(key);
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    fatal_if(end == it->second.c_str() || *end != '\0',
             "option --%s=%s is not a number", key.c_str(),
             it->second.c_str());
    return v;
}

std::vector<std::string>
Options::getList(const std::string &key, const std::string &dflt) const
{
    std::string csv = getString(key, dflt);
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        if (comma > pos)
            out.push_back(csv.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

bool
Options::getBool(const std::string &key, bool dflt) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return dflt;
    used_.insert(key);
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("option --%s=%s is not a boolean", key.c_str(), v.c_str());
    return dflt;
}

void
Options::rejectUnused() const
{
    for (const auto &[key, value] : values_) {
        fatal_if(!used_.count(key), "unknown option --%s=%s",
                 key.c_str(), value.c_str());
    }
}

} // namespace minnow
