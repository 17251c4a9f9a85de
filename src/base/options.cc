#include "base/options.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

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
    std::string key = body.substr(0, eq);
    values_[key] = eq == std::string::npos ? "true" : body.substr(eq + 1);
    typed_[key] = arg;
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

namespace
{

/**
 * @p text as an unsigned integer (decimal, 0x hex or 0 octal) for
 * option --@p key: a sign, trailing junk, or a value past 2^64-1 is
 * fatal rather than wrapped or saturated.
 */
std::uint64_t
parseUint(const std::string &key, const char *text)
{
    // strtoull accepts a sign (and wraps a negative value) and
    // saturates on overflow; neither is a valid unsigned option.
    char sign = text[std::strspn(text, " \t\n\v\f\r")];
    fatal_if(sign == '-' || sign == '+',
             "option --%s=%s is not an unsigned integer", key.c_str(),
             text);
    char *end = nullptr;
    errno = 0;
    std::uint64_t v = std::strtoull(text, &end, 0);
    fatal_if(end == text || *end != '\0',
             "option --%s=%s is not an unsigned integer", key.c_str(),
             text);
    fatal_if(errno == ERANGE, "option --%s=%s is out of range",
             key.c_str(), text);
    return v;
}

/** @p v of option --@p key narrowed to 32 bits; fatal past 2^32-1. */
std::uint32_t
narrowU32(const std::string &key, std::uint64_t v)
{
    fatal_if(v > std::numeric_limits<std::uint32_t>::max(),
             "option --%s=%llu is out of range (at most %u)",
             key.c_str(), (unsigned long long)v,
             std::numeric_limits<std::uint32_t>::max());
    return std::uint32_t(v);
}

} // anonymous namespace

std::uint64_t
Options::getUint(const std::string &key, std::uint64_t dflt) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return dflt;
    used_.insert(key);
    return parseUint(key, it->second.c_str());
}

std::uint32_t
Options::getU32(const std::string &key, std::uint32_t dflt) const
{
    return narrowU32(key, getUint(key, dflt));
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

std::vector<std::uint32_t>
Options::getU32List(const std::string &key, const std::string &dflt) const
{
    std::vector<std::uint32_t> out;
    for (const std::string &item : getList(key, dflt))
        out.push_back(narrowU32(key, parseUint(key, item.c_str())));
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
    for (const auto &[key, arg] : typed_)
        fatal_if(!used_.count(key), "unknown option %s", arg.c_str());
}

} // namespace minnow
